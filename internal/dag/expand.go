package dag

import "slices"

// Expander is the streaming alternative to a materialized Workflow: a lazy
// frontier that hands out ready tasks one at a time and learns about
// completions, so a runner never needs more than the currently runnable slice
// of a workflow in memory. This is what makes 100k-node / million-task runs
// feasible — scatter shards and successor stages come into existence only as
// their predecessors finish, and retired tasks can be recycled.
//
// The emission contract is exact, not approximate: Next must yield tasks in
// precisely the order a WorkflowExpander over the equivalent Workflow would —
// roots in insertion order, then, per successful completion, newly ready
// successors in edge-creation order. Materialized and streaming runs are
// therefore bit-identical (same fingerprints), which the equivalence tests in
// internal/sweep assert over seeds, fault profiles, and worker counts.
//
// Call discipline: Next until it reports no ready task. When a task turns
// terminal, Retire it first, then report it, by the ID it was emitted with,
// via exactly one of TaskDone/TaskFailed (which may make more tasks ready).
// Retire may recycle the Task struct, so the caller keeps the ID before
// retiring; a caller whose run has failed may retire a task without
// reporting it. rm.StreamRunner, the one caller, keeps this order.
// Implementations are single-goroutine, like the engine that drives them.
type Expander interface {
	// Name labels the expansion (the workflow name).
	Name() string
	// Total returns the number of tasks the expansion will emit plus the
	// number it will write off via TaskFailed — the denominator for
	// completion accounting.
	Total() int
	// Next returns the next ready task and its eager insertion index — the
	// position the task would occupy in the equivalent Workflow's insertion
	// order, which keyes per-task fault plans (fault.Profile.PlanTaskFailures)
	// without materializing the task list. ok is false when nothing is
	// currently ready (more may become ready after TaskDone).
	Next() (t *Task, idx int, ok bool)
	// TaskDone records a successful completion, unlocking successors.
	TaskDone(id TaskID)
	// TaskFailed records a terminal failure and writes off every not-yet
	// emitted transitive successor, returning how many were newly skipped.
	TaskFailed(id TaskID) int
	// Retire releases a task handed out by Next once it is terminal, before
	// its TaskDone/TaskFailed report; implementations may recycle the Task
	// struct. The caller must drop all references to t first.
	Retire(t *Task)
}

// WorkflowExpander adapts a materialized Workflow to the Expander interface.
// It is the reference readiness tracker every run of an eagerly built DAG
// shares — through rm.StreamRunner, on rm, a pilot, the cloud fleet or the
// big-worker pool — and the order the streaming expanders must reproduce. It is
// deliberately O(tasks) resident, since the workflow already is: readiness is
// a table indexed by insertion position and the ready FIFO holds positions.
// The zero value is ready for Reset.
type WorkflowExpander struct {
	w         *Workflow
	state     []readiness
	ready     []int32
	readyNext int
}

// readiness is one task's record in a WorkflowExpander: its count of
// unfinished dependencies, and whether a failed ancestor wrote it off.
type readiness struct {
	remaining int32
	skipped   bool
}

// NewWorkflowExpander validates w and returns an expander that replays its
// eager submission order.
func NewWorkflowExpander(w *Workflow) (*WorkflowExpander, error) {
	x := &WorkflowExpander{}
	if err := x.Reset(w); err != nil {
		return nil, err
	}
	return x, nil
}

// Reset validates w and rebinds the expander to it, refilling the readiness
// table and ready FIFO in place: a warm session replays thousands of
// workflows through one expander without reallocating either. Reset(nil)
// just clears.
func (x *WorkflowExpander) Reset(w *Workflow) error {
	x.w, x.state, x.ready, x.readyNext = nil, x.state[:0], x.ready[:0], 0
	if w == nil {
		return nil
	}
	if err := w.Validate(); err != nil {
		return err
	}
	x.w = w
	x.state = slices.Grow(x.state, len(w.list))
	x.ready = slices.Grow(x.ready, len(w.list))
	for i, t := range w.list {
		x.state = append(x.state, readiness{remaining: int32(len(t.Deps))})
		if len(t.Deps) == 0 {
			x.ready = append(x.ready, int32(i))
		}
	}
	return nil
}

// Name implements Expander.
func (x *WorkflowExpander) Name() string { return x.w.Name }

// Total implements Expander.
func (x *WorkflowExpander) Total() int { return x.w.Len() }

// Next implements Expander: the ready FIFO preserves eager submission order.
func (x *WorkflowExpander) Next() (*Task, int, bool) {
	if x.readyNext >= len(x.ready) {
		x.ready = x.ready[:0]
		x.readyNext = 0
		return nil, 0, false
	}
	i := x.ready[x.readyNext]
	x.readyNext++
	return x.w.list[i], int(i), true
}

// TaskDone implements Expander, readying successors in edge-creation order.
// An ID not in the workflow is a no-op.
func (x *WorkflowExpander) TaskDone(id TaskID) {
	i, ok := x.w.index[id]
	if !ok {
		return
	}
	for _, c := range x.w.successors(i) {
		st := &x.state[c]
		st.remaining--
		if st.remaining == 0 && !st.skipped {
			x.ready = append(x.ready, c)
		}
	}
}

// TaskFailed implements Expander: every transitive descendant is written
// off, whatever its other dependencies, because one of them can now never be
// satisfied. An ID not in the workflow is a no-op.
func (x *WorkflowExpander) TaskFailed(id TaskID) int {
	i, ok := x.w.index[id]
	if !ok {
		return 0
	}
	return x.writeOff(i)
}

// writeOff skips every not-yet-skipped descendant of position i, depth
// first in edge-creation order, and returns how many it newly skipped.
func (x *WorkflowExpander) writeOff(i int32) int {
	n := 0
	for _, c := range x.w.successors(i) {
		st := &x.state[c]
		if st.skipped {
			continue
		}
		st.skipped = true
		n += 1 + x.writeOff(c)
	}
	return n
}

// Retire implements Expander. Tasks belong to the underlying workflow, so
// nothing is recycled; the method exists so drivers can treat every
// expander uniformly.
func (x *WorkflowExpander) Retire(*Task) {}
