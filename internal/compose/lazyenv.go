package compose

import (
	"hhcw/internal/core"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
)

// LazyEnv executes workflows containing WorkflowRef tasks through lazy
// runtime expansion: instead of statically expanding with Registry.Expand
// and running eagerly, the workflow is wrapped in a dag.RefExpander and
// driven through core.RunExpander / rm.StreamRunner, so referenced
// sub-workflows splice into the frontier only as their inputs resolve.
//
// Name() delegates to the inner environment, so a lazy result's fingerprint
// is directly comparable to the static-expansion one — the equivalence the
// recursive golden battery asserts bit-for-bit across seeds, fault profiles,
// and worker counts.
type LazyEnv struct {
	core.KubernetesEnv
	Registry *Registry
}

// Run implements core.Environment.
func (e *LazyEnv) Run(w *dag.Workflow) (*core.Result, error) {
	return e.RunSeeded(w, randx.New(1))
}

// RunSeeded implements core.SeededEnvironment via lazy reference expansion
// on the streaming run path.
func (e *LazyEnv) RunSeeded(w *dag.Workflow, rng *randx.Source) (*core.Result, error) {
	x, err := e.Registry.Expander(w)
	if err != nil {
		return nil, err
	}
	return e.RunExpander(x, rng)
}

// NewSession overrides the promoted KubernetesEnv.NewSession with a cold
// passthrough: lazy expansion runs on the streaming path, whose substrate is
// rebuilt per run by design. Without this override, session-aware sweeps
// would route lazy workflows through the eager warm path — running the
// unexpanded reference root instead of resolving it.
func (e *LazyEnv) NewSession() (core.RunSession, error) {
	return core.ColdSession(e), nil
}
