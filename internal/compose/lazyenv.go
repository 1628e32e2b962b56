package compose

import (
	"hhcw/internal/core"
	"hhcw/internal/dag"
)

// LazyEnv executes workflows containing WorkflowRef tasks through lazy
// runtime expansion: instead of statically expanding with Registry.Expand
// and running eagerly, each run wraps the workflow in a dag.RefExpander and
// drives it through core.Session / rm.StreamRunner, so referenced
// sub-workflows splice into the frontier only as their inputs resolve. Its
// session is warm: the engine, cluster, manager, runner and fault layer are
// reset in place between runs, and only the expander is built per run.
//
// Name() delegates to the inner environment, so a lazy result's fingerprint
// is directly comparable to the static-expansion one — the equivalence the
// recursive golden battery asserts bit-for-bit across seeds, fault profiles,
// and worker counts.
type LazyEnv struct {
	core.KubernetesEnv
	Registry *Registry
}

// NewSession implements core.Environment, overriding the promoted
// eager KubernetesEnv.NewSession, which would run the unexpanded reference
// root instead of resolving it. Each run expands its workflow through the
// registry.
func (e *LazyEnv) NewSession() (core.RunSession, error) {
	reg := e.Registry
	return e.NewExpanderSession(func(w *dag.Workflow) (dag.Expander, error) {
		x, err := reg.Expander(w)
		if err != nil {
			return nil, err
		}
		return x, nil
	})
}
