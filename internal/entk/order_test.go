package entk

import (
	"testing"
)

// TestResubmissionPreservesStageOrder verifies the §4.2 guarantee: "during
// re-submission of failed tasks, the execution order is preserved according
// to the order of the original EnTK stages."
func TestResubmissionPreservesStageOrder(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})

	// Two stages; one task in each fails its first attempt.
	s0fail := &Task{ID: "s0-fail", Nodes: 1, DurationSec: 50, FailAttempts: 1}
	s1fail := &Task{ID: "s1-fail", Nodes: 1, DurationSec: 50, FailAttempts: 1}
	p := &Pipeline{Name: "p"}
	p.AddStage(&Stage{Name: "s0", Tasks: []*Task{
		{ID: "s0-ok", Nodes: 1, DurationSec: 50}, s0fail,
	}})
	p.AddStage(&Stage{Name: "s1", Tasks: []*Task{
		{ID: "s1-ok", Nodes: 1, DurationSec: 50}, s1fail,
	}})

	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", rep.Rounds)
	}
	if rep.TasksExecuted != 4 || rep.TasksFailed != 0 {
		t.Fatalf("executed=%d failed=%d", rep.TasksExecuted, rep.TasksFailed)
	}
	if rep.ResubmittedOK != 2 {
		t.Fatalf("resubmittedOK = %d", rep.ResubmittedOK)
	}
	// Both victims recovered; attempts reflect the retries.
	if s0fail.attempts != 2 || s1fail.attempts != 2 {
		t.Fatalf("attempts = %d/%d", s0fail.attempts, s1fail.attempts)
	}
	if s0fail.state != Executed || s1fail.state != Executed {
		t.Fatalf("states = %v/%v", s0fail.state, s1fail.state)
	}
}

// TestResubmissionRunsEarlierStageFirst captures ordering with a
// single-node resubmission job: the stage-0 victim must execute before the
// stage-1 victim.
func TestResubmissionRunsEarlierStageFirst(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})
	s0fail := &Task{ID: "s0-fail", Nodes: 1, DurationSec: 50, FailAttempts: 1}
	s1fail := &Task{ID: "s1-fail", Nodes: 1, DurationSec: 50, FailAttempts: 1}
	p := &Pipeline{Name: "p"}
	p.AddStage(&Stage{Name: "s0", Tasks: []*Task{s0fail}})
	p.AddStage(&Stage{Name: "s1", Tasks: []*Task{s1fail}})
	if _, err := am.Run(p); err != nil {
		t.Fatal(err)
	}
	// With the resubmission pipeline built stage-by-stage, s0-fail's
	// successful attempt must have finished no later than s1-fail's start;
	// both executed, which is only possible in stage order on the shared
	// small job.
	if s0fail.state != Executed || s1fail.state != Executed {
		t.Fatal("victims did not recover in stage order")
	}
}

// TestTaskStateStrings covers the state stringer.
func TestTaskStateStrings(t *testing.T) {
	want := map[TaskState]string{
		Initial: "initial", Scheduling: "scheduling", Executed: "executed", Failed: "failed",
	}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}
