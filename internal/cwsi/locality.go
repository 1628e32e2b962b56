package cwsi

import (
	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/rm"
)

// Data-locality-aware scheduling: the CWSI transfers "input files" metadata
// (§3.1), so a workflow-aware scheduler knows where each task's inputs were
// produced. With a DataBandwidth configured, the CWS charges staging time
// for input bytes that are not node-local, and the DataLocal strategy
// steers tasks toward the nodes holding the largest share of their inputs —
// the classic locality optimization a workflow-oblivious scheduler cannot
// perform because it does not know the dataflow.

// SetDataBandwidth enables the data-plane model: task inputs produced on a
// different node are staged at bps bytes/second before execution (0
// disables; node-local inputs are free, as on node-local NVMe).
func (c *CWS) SetDataBandwidth(bps float64) { c.dataBW = bps }

// noteOutput records that the task at position idx of st's workflow left its
// outputs on node. Locations live on the workflow's own state, so they go
// with it when the workflow is released.
func (c *CWS) noteOutput(st *wfState, idx int, node *cluster.Node) {
	st.outs[idx] = node
	c.prioGen++ // locality changed; memoized priorities may be stale
}

// LocalInputBytes returns how many of the task's input bytes are already on
// node n (produced there by dependencies). Inputs of root tasks count as
// remote (staged from shared storage).
func (ctx *Context) LocalInputBytes(wfID string, taskID dag.TaskID, n *cluster.Node) float64 {
	st := ctx.cws.workflows[wfID]
	if st == nil {
		return 0
	}
	t := st.wf.Task(taskID)
	if t == nil {
		return 0
	}
	local := 0.0
	for _, dep := range t.Deps {
		if j, ok := st.wf.Index(dep); ok && st.outs[j] == n {
			local += st.wf.At(j).OutputBytes
		}
	}
	return local
}

// remoteInputBytes is the complement of LocalInputBytes over the task's
// dependency outputs plus its external input size.
func remoteInputBytes(st *wfState, t *dag.Task, n *cluster.Node) float64 {
	if st == nil {
		return t.InputBytes
	}
	remote := 0.0
	fromDeps := 0.0
	for _, dep := range t.Deps {
		j, ok := st.wf.Index(dep)
		if !ok {
			continue
		}
		dt := st.wf.At(j)
		fromDeps += dt.OutputBytes
		if st.outs[j] != n {
			remote += dt.OutputBytes
		}
	}
	// External inputs (beyond dependency outputs) are always staged.
	if ext := t.InputBytes - fromDeps; ext > 0 {
		remote += ext
	}
	return remote
}

// DataLocal is a workflow-aware strategy that combines rank ordering with
// locality placement: among feasible nodes, pick the one holding the most
// input bytes.
type DataLocal struct{}

// Name implements Strategy.
func (DataLocal) Name() string { return "datalocal" }

// Priority implements Strategy.
func (DataLocal) Priority(s *rm.Submission, ctx *Context) float64 {
	return ctx.Rank(s.WorkflowID, s.TaskID)
}

// PickNode implements Strategy.
func (DataLocal) PickNode(s *rm.Submission, candidates []*cluster.Node, ctx *Context) *cluster.Node {
	var best *cluster.Node
	bestLocal := -1.0
	for _, n := range candidates {
		local := ctx.LocalInputBytes(s.WorkflowID, s.TaskID, n)
		if local > bestLocal {
			best, bestLocal = n, local
		}
	}
	return best
}
