package core

import (
	"errors"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
)

// A run that can never finish returns a *rm.StallError on every substrate:
// a task wider than any Kubernetes node, and a source that never readies its
// last task on the pilot and on the cloud fleet (a valid workflow cannot
// stall there: each task either fits the pilot or is refused, and any
// instance runs any task).
func TestStalledRunsReturnStallError(t *testing.T) {
	w := dag.New("big")
	w.Add(&dag.Task{ID: "wide", Cores: 16, NominalDur: 10})
	_, err := Run(&KubernetesEnv{Nodes: 2, CoresPerNode: 8}, w, randx.New(1))
	wantStall(t, "kubernetes", err, "big", 0, 1)

	_, err = (&HPCEnv{Nodes: 2, CoresPerNode: 8}).run(&stuckExpander{})
	wantStall(t, "hpc", err, "stuck", 1, 2)
	_, err = (&CloudEnv{MaxInstances: 2}).run(&stuckExpander{})
	wantStall(t, "cloud", err, "stuck", 1, 2)
}

func wantStall(t *testing.T, env string, err error, wf string, done, total int) {
	t.Helper()
	var se *rm.StallError
	if !errors.As(err, &se) {
		t.Fatalf("%s: err = %v, want a *rm.StallError", env, err)
	}
	if se.Workflow != wf || se.Done != done || se.Total != total {
		t.Fatalf("%s: stall = %+v, want %s %d/%d", env, *se, wf, done, total)
	}
}

// stuckExpander counts two tasks but only ever readies the first.
type stuckExpander struct{ emitted bool }

func (x *stuckExpander) Name() string { return "stuck" }
func (x *stuckExpander) Total() int   { return 2 }
func (x *stuckExpander) Next() (*dag.Task, int, bool) {
	if x.emitted {
		return nil, 0, false
	}
	x.emitted = true
	return &dag.Task{ID: "first", Cores: 1, NominalDur: 10}, 0, true
}
func (x *stuckExpander) TaskDone(dag.TaskID)       {}
func (x *stuckExpander) TaskFailed(dag.TaskID) int { return 0 }
func (x *stuckExpander) Retire(*dag.Task)          {}
