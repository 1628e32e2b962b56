package entk

import (
	"fmt"
	"testing"
)

// TestDynamicStageCreation exercises §4's dynamic-workflow capability: a
// stage's PostExec inspects results and appends a refinement stage.
func TestDynamicStageCreation(t *testing.T) {
	_, cl, bm := setup(4)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 4, Walltime: 1e6})

	p := &Pipeline{Name: "adaptive"}
	first := p.AddStage(&Stage{Name: "coarse"})
	for i := 0; i < 4; i++ {
		first.AddTask(&Task{ID: fmt.Sprintf("c%d", i), Nodes: 1, DurationSec: 50})
	}
	refined := false
	first.PostExec = func(pl *Pipeline, s *Stage) {
		// "Create new workflow stages based on the status of previously
		// executed stages": refine when everything converged.
		allOK := true
		for _, task := range s.Tasks {
			if task.state != Executed {
				allOK = false
			}
		}
		if allOK {
			refined = true
			fine := &Stage{Name: "fine"}
			for i := 0; i < 2; i++ {
				fine.AddTask(&Task{ID: fmt.Sprintf("f%d", i), Nodes: 1, DurationSec: 30})
			}
			pl.AddStage(fine)
		}
	}

	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !refined {
		t.Fatal("PostExec never fired")
	}
	if rep.TasksExecuted != 6 {
		t.Fatalf("executed = %d, want 6 (4 coarse + 2 dynamic)", rep.TasksExecuted)
	}
	if rep.TTX != 80 { // 50 coarse wave + 30 fine wave
		t.Fatalf("TTX = %v, want 80", rep.TTX)
	}
	if len(p.Stages) != 2 {
		t.Fatalf("pipeline grew to %d stages, want 2", len(p.Stages))
	}
}

// TestDynamicStagesChain verifies cascaded growth: a dynamically added stage
// can itself add another stage.
func TestDynamicStagesChain(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})

	p := &Pipeline{Name: "cascade"}
	depth := 0
	var grow func(pl *Pipeline, s *Stage)
	grow = func(pl *Pipeline, s *Stage) {
		if depth >= 3 {
			return
		}
		depth++
		next := &Stage{Name: fmt.Sprintf("g%d", depth)}
		next.AddTask(&Task{ID: fmt.Sprintf("t%d", depth), Nodes: 1, DurationSec: 10})
		next.PostExec = grow
		pl.AddStage(next)
	}
	root := p.AddStage(&Stage{Name: "root"})
	root.AddTask(&Task{ID: "t0", Nodes: 1, DurationSec: 10})
	root.PostExec = grow

	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksExecuted != 4 { // root + 3 grown
		t.Fatalf("executed = %d, want 4", rep.TasksExecuted)
	}
	if rep.TTX != 40 {
		t.Fatalf("TTX = %v, want 40 (sequential growth)", rep.TTX)
	}
}

// TestDynamicStageWithFailureStillResubmits ensures dynamic stages
// participate in order-preserving resubmission.
func TestDynamicStageWithFailureStillResubmits(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})

	p := &Pipeline{Name: "dynfail"}
	root := p.AddStage(&Stage{Name: "root"})
	root.AddTask(&Task{ID: "r", Nodes: 1, DurationSec: 10})
	var victim *Task
	root.PostExec = func(pl *Pipeline, s *Stage) {
		dyn := &Stage{Name: "dyn"}
		victim = dyn.AddTask(&Task{ID: "v", Nodes: 1, DurationSec: 10, FailAttempts: 1})
		pl.AddStage(dyn)
	}
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if victim == nil || victim.state != Executed {
		t.Fatalf("dynamic task not recovered: %+v", victim)
	}
	if rep.Rounds != 2 || rep.ResubmittedOK != 1 {
		t.Fatalf("rounds=%d resubmittedOK=%d", rep.Rounds, rep.ResubmittedOK)
	}
}

// TestPostExecOnEmptyStage covers the empty-stage PostExec path.
func TestPostExecOnEmptyStage(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})
	p := &Pipeline{Name: "empty"}
	fired := false
	p.AddStage(&Stage{Name: "hollow", PostExec: func(pl *Pipeline, s *Stage) {
		fired = true
		dyn := &Stage{Name: "dyn"}
		dyn.AddTask(&Task{ID: "d", Nodes: 1, DurationSec: 5})
		pl.AddStage(dyn)
	}})
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !fired || rep.TasksExecuted != 1 {
		t.Fatalf("fired=%v executed=%d", fired, rep.TasksExecuted)
	}
}
