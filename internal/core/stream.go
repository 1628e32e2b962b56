package core

import (
	"fmt"

	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
)

// RunExpander executes a streaming expansion on the kubernetes substrate —
// the extreme-scale run path. It is the warm session's FIFO path (runStream:
// same task driver, same fault-layer fork order, same runtime scaling) on a
// freshly built substrate, with terminal tasks recycled by the expander as
// they settle. It keeps no provenance: the result's Provenance is nil. The
// cluster and manager keep only counts and a running utilization integral,
// O(1) at any scale.
//
// CWS strategies need the whole DAG for ranking and are rejected here; run
// materialized workflows through RunSeeded for those studies.
func (e *KubernetesEnv) RunExpander(x dag.Expander, rng *randx.Source) (*Result, error) {
	if e.Strategy != nil {
		return nil, fmt.Errorf("core: streaming runs do not support CWS strategies (%q needs the whole DAG)", e.Strategy.Name())
	}
	if e.predictOn() {
		return nil, fmt.Errorf("core: streaming runs do not support the prediction loop (predict=%q needs the CWS)", e.Predict)
	}
	_, cl, err := e.substrate()
	if err != nil {
		return nil, err
	}
	mgr := rm.NewTaskManager(cl, nil)
	var arm faultArm
	if err := e.armFaults(&arm, cl, rng, x.Total(), new(forkPool)); err != nil {
		return nil, err
	}
	res := &Result{Environment: e.Name()}
	if err := runStream(&rm.StreamRunner{Manager: mgr}, x, cl, &arm, nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

// StreamingEnv is a KubernetesEnv that executes through the streaming run
// path: workflows are wrapped in a dag.WorkflowExpander and driven by
// RunExpander. Name() is inherited unchanged, so a streaming result's
// fingerprint is directly comparable to the eager environment's — the
// equivalence the sweep tests assert bit-for-bit. It exists for exactly that
// comparison (and as the drop-in for eagerly built DAGs on the streaming
// path); native streaming sources (jaws scatter, entk stages) should hand
// their expanders straight to RunExpander.
type StreamingEnv struct {
	KubernetesEnv
}

// Run implements Environment.
func (e *StreamingEnv) Run(w *dag.Workflow) (*Result, error) {
	return e.RunSeeded(w, randx.New(1))
}

// RunSeeded implements SeededEnvironment via the streaming path.
func (e *StreamingEnv) RunSeeded(w *dag.Workflow, rng *randx.Source) (*Result, error) {
	x, err := dag.NewWorkflowExpander(w)
	if err != nil {
		return nil, err
	}
	return e.RunExpander(x, rng)
}
