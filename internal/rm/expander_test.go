package rm

import (
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// recordingExpander checks the runner's dag.Expander call discipline. It
// hands out pooled copies of a WorkflowExpander's tasks and, like a pooling
// expander may, overwrites a copy's ID when the copy is retired, so a runner
// that read a task after retiring it would report the wrong ID.
type recordingExpander struct {
	t     *testing.T
	inner *dag.WorkflowExpander
	free  []*dag.Task
	// emitted maps each live copy to the ID Next emitted it with.
	emitted                     map[*dag.Task]dag.TaskID
	observed, retired, reported map[dag.TaskID]bool
}

func (x *recordingExpander) Name() string { return x.inner.Name() }
func (x *recordingExpander) Total() int   { return x.inner.Total() }

func (x *recordingExpander) Next() (*dag.Task, int, bool) {
	t, idx, ok := x.inner.Next()
	if !ok {
		return nil, 0, false
	}
	c := &dag.Task{}
	if n := len(x.free); n > 0 {
		c, x.free = x.free[n-1], x.free[:n-1]
	}
	*c = *t
	x.emitted[c] = t.ID
	return c, idx, true
}

// observe is the runner's Observe hook: it must see a live task, once,
// before the task is retired.
func (x *recordingExpander) observe(t *dag.Task, _ Result) {
	id, live := x.emitted[t]
	if !live || t.ID != id || x.observed[id] {
		x.t.Errorf("Observe(%s): live %v, emitted as %s, observed before %v", t.ID, live, id, x.observed[id])
	}
	x.observed[id] = true
}

func (x *recordingExpander) Retire(t *dag.Task) {
	id, live := x.emitted[t]
	if !live || !x.observed[id] || x.reported[id] {
		x.t.Errorf("Retire(%s): live %v, observed %v, reported %v; want a live task observed and not yet reported",
			t.ID, live, x.observed[id], x.reported[id])
	}
	x.retired[id] = true
	delete(x.emitted, t)
	t.ID = "recycled"
	x.free = append(x.free, t)
}

// report checks a TaskDone/TaskFailed report: it must name a task already
// retired and not yet reported.
func (x *recordingExpander) report(call string, id dag.TaskID) {
	if !x.retired[id] || x.reported[id] {
		x.t.Errorf("%s(%s): retired %v, reported before %v; want a retired task reported once", call, id, x.retired[id], x.reported[id])
	}
	x.reported[id] = true
}

func (x *recordingExpander) TaskDone(id dag.TaskID) {
	x.report("TaskDone", id)
	x.inner.TaskDone(id)
}

func (x *recordingExpander) TaskFailed(id dag.TaskID) int {
	x.report("TaskFailed", id)
	return x.inner.TaskFailed(id)
}

// The runner observes every terminal task, then retires it, then reports it
// by the ID it was emitted with, through retries, terminal failures and the
// write-offs they cause.
func TestStreamRunnerExpanderCallOrder(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		w := dag.RandomLayered(randx.New(seed), 5, 4, dag.GenOpts{MeanDur: 60})
		fails := map[dag.TaskID]int{}
		for i, task := range w.Tasks() {
			if i%5 == 1 {
				fails[task.ID] = 1 // recovers on its second attempt
			}
			if i%4 == 3 {
				// Its predecessors fail terminally and write it off.
				for _, d := range task.Deps {
					fails[d] = 9
				}
			}
		}
		inner, err := dag.NewWorkflowExpander(w)
		if err != nil {
			t.Fatal(err)
		}
		x := &recordingExpander{t: t, inner: inner, emitted: map[*dag.Task]dag.TaskID{},
			observed: map[dag.TaskID]bool{}, retired: map[dag.TaskID]bool{}, reported: map[dag.TaskID]bool{}}
		eng := sim.NewEngine()
		sr := &StreamRunner{
			Manager:    NewTaskManager(testCluster(eng, 2, 4), nil),
			Source:     x,
			WorkflowID: "wf",
			Retry:      &fault.RetryPolicy{MaxAttempts: 2, BaseDelaySec: 5, Multiplier: 2},
			FailPlan:   failPlan(w, fails),
			Observe:    x.observe,
		}
		sr.Run()
		st := sr.Stats()
		if st.TerminalFailures == 0 || st.Retries == 0 || st.Skipped == 0 {
			t.Fatalf("seed %d: stats %+v, want retries, terminal failures and write-offs", seed, st)
		}
		if len(x.emitted) != 0 || len(x.reported) != len(x.observed) || len(x.reported)+st.Skipped != w.Len() {
			t.Fatalf("seed %d: %d tasks live at the end, %d observed, %d reported, %d skipped of %d",
				seed, len(x.emitted), len(x.observed), len(x.reported), st.Skipped, w.Len())
		}
	}
}
