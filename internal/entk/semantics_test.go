package entk

import "testing"

// The AppManager runs a pipeline differently from StageExpander on a
// Kubernetes-like cluster: a failed task waits for the next batch job
// instead of killing the barrier, so later stages still run and the failed
// stage's PostExec still fires; FailAttempts fail an attempt at half its
// duration; a task the pilot refuses fails without running. These tests pin
// each difference.

// TestFailureDoesNotStopLaterStages: a failure in stage k leaves stage k+1
// to run in the same job.
func TestFailureDoesNotStopLaterStages(t *testing.T) {
	_, cl, bm := setup(4)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 4, Walltime: 1e6})
	am.MaxResubmitRounds = 0
	p := simplePipeline([]float64{10, 10}, []float64{20})
	bad := p.Stages[0].Tasks[0]
	bad.FailAttempts = 1
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if bad.state != Failed || p.Stages[1].Tasks[0].state != Executed {
		t.Fatalf("states: failed task %v, next stage %v", bad.state, p.Stages[1].Tasks[0].state)
	}
	if rep.TasksExecuted != 2 || rep.TasksFailed != 1 || rep.Rounds != 1 {
		t.Fatalf("executed=%d failed=%d rounds=%d", rep.TasksExecuted, rep.TasksFailed, rep.Rounds)
	}
	if rep.TTX != 30 { // stage 0 ends with its slow sibling at 10, stage 1 takes 20
		t.Fatalf("TTX = %v, want 30", rep.TTX)
	}
}

// TestPostExecFiresOnFailedStage: PostExec fires on a stage that had
// failures, and sees them, before the next stage starts.
func TestPostExecFiresOnFailedStage(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})
	am.MaxResubmitRounds = 0
	p := simplePipeline([]float64{10, 10})
	p.Stages[0].Tasks[1].FailAttempts = 1
	var seen []TaskState
	p.Stages[0].PostExec = func(pl *Pipeline, s *Stage) {
		for _, task := range s.Tasks {
			seen = append(seen, task.state)
		}
		grown := pl.AddStage(&Stage{Name: "grown"})
		grown.AddTask(&Task{ID: "g", Nodes: 1, DurationSec: 5})
	}
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != Executed || seen[1] != Failed {
		t.Fatalf("PostExec saw %v, want [executed failed]", seen)
	}
	if rep.TasksExecuted != 2 || rep.TasksFailed != 1 || rep.TTX != 15 {
		t.Fatalf("executed=%d failed=%d TTX=%v", rep.TasksExecuted, rep.TasksFailed, rep.TTX)
	}
}

// TestFailAttemptsEndAtHalfDuration: an injected application failure ends
// the attempt at DurationSec/2; the resubmitted attempt runs in full.
func TestFailAttemptsEndAtHalfDuration(t *testing.T) {
	eng, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})
	p := simplePipeline([]float64{100})
	task := p.Stages[0].Tasks[0]
	task.FailAttempts = 1
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TTX != 50 {
		t.Fatalf("first job TTX = %v, want 50 (failure at half the duration)", rep.TTX)
	}
	if rep.Rounds != 2 || rep.ResubmittedOK != 1 || task.state != Executed || task.attempts != 2 {
		t.Fatalf("rounds=%d resubmittedOK=%d state=%v attempts=%d",
			rep.Rounds, rep.ResubmittedOK, task.state, task.attempts)
	}
	if eng.Now() != 150 { // the second job starts when the first ends and runs 100 s
		t.Fatalf("clock = %v, want 150", eng.Now())
	}
}

// TestOversizedStageSkipsPostExec: a task with more nodes than the pilot
// fails without running. A stage of nothing but such tasks advances without
// its PostExec; a stage where any task ran still fires it.
func TestOversizedStageSkipsPostExec(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})
	am.MaxResubmitRounds = 0
	p := &Pipeline{Name: "p"}
	fired := map[string]bool{}
	post := func(_ *Pipeline, s *Stage) { fired[s.Name] = true }
	p.AddStage(&Stage{Name: "huge", PostExec: post}).AddTask(&Task{ID: "h", Nodes: 10, DurationSec: 10})
	mixed := p.AddStage(&Stage{Name: "mixed", PostExec: post})
	mixed.AddTask(&Task{ID: "h", Nodes: 10, DurationSec: 10})
	mixed.AddTask(&Task{ID: "s", Nodes: 1, DurationSec: 10})
	p.AddStage(&Stage{Name: "last"}).AddTask(&Task{ID: "t", Nodes: 1, DurationSec: 10})
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if fired["huge"] || !fired["mixed"] {
		t.Fatalf("PostExec fired = %v, want mixed only", fired)
	}
	if rep.TasksFailed != 2 || rep.TasksExecuted != 2 || rep.TTX != 20 {
		t.Fatalf("failed=%d executed=%d TTX=%v", rep.TasksFailed, rep.TasksExecuted, rep.TTX)
	}
	for _, s := range p.Stages[:2] {
		if s.Tasks[0].state != Failed || s.Tasks[0].attempts != 1 {
			t.Fatalf("oversized task in %s: state %v attempts %d", s.Name, s.Tasks[0].state, s.Tasks[0].attempts)
		}
	}
}

// TestUnnamedAndEmptyPipelinesRun: pipelines that Compile rejects or that
// hold no task — one without a name, one without stages, one with only
// empty stages — run on the AppManager without error.
func TestUnnamedAndEmptyPipelinesRun(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})
	unnamed := simplePipeline([]float64{10})
	unnamed.Name = ""
	hollow := &Pipeline{Name: "hollow"}
	hollow.AddStage(&Stage{Name: "none"})
	rep, err := am.Run(unnamed, &Pipeline{Name: "empty"}, hollow)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksExecuted != 1 || rep.TasksFailed != 0 || rep.TTX != 10 {
		t.Fatalf("executed=%d failed=%d TTX=%v", rep.TasksExecuted, rep.TasksFailed, rep.TTX)
	}
	rep, err = am.Run(&Pipeline{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksExecuted != 0 || rep.Rounds != 1 {
		t.Fatalf("empty run: executed=%d rounds=%d", rep.TasksExecuted, rep.Rounds)
	}
}
