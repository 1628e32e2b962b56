package entk

import (
	"fmt"
	"testing"

	"hhcw/internal/dag"
)

func expandPipeline(n string) *Pipeline {
	p := &Pipeline{Name: n}
	s0 := p.AddStage(&Stage{Name: "prep"})
	s0.AddTask(&Task{ID: "t0", Nodes: 4, DurationSec: 10})
	s0.AddTask(&Task{ID: "t1", Nodes: 1, DurationSec: 5})
	p.AddStage(&Stage{})       // empty stage: skipped by Compile and expand alike
	s2 := p.AddStage(&Stage{}) // unnamed: defaults to stage%02d by original index
	for i := 0; i < 3; i++ {
		s2.AddTask(&Task{ID: fmt.Sprintf("sim%d", i), Nodes: 2, DurationSec: 20})
	}
	s3 := p.AddStage(&Stage{Name: "analyze"})
	s3.AddTask(&Task{ID: "post", DurationSec: 3}) // Nodes 0 -> 1 core
	return p
}

// Driving the expander with immediate completions must replay exactly the
// task sequence Compile materializes, field for field.
func TestStageExpanderMatchesCompile(t *testing.T) {
	w, err := expandPipeline("pst").Compile()
	if err != nil {
		t.Fatal(err)
	}
	x, err := expandPipeline("pst").expand()
	if err != nil {
		t.Fatal(err)
	}
	if x.Name() != "pst" || x.Total() != w.Len() {
		t.Fatalf("Name/Total: %q/%d, want pst/%d", x.Name(), x.Total(), w.Len())
	}
	want := w.Tasks() // insertion order == stage-major eager order
	got := 0
	for got < len(want) {
		task, idx, ok := x.Next()
		if !ok {
			t.Fatalf("expander dried up after %d of %d tasks", got, len(want))
		}
		if idx != got {
			t.Fatalf("task %s: eager index %d, want %d", task.ID, idx, got)
		}
		ref := want[got]
		if task.ID != ref.ID || task.Name != ref.Name || task.Cores != ref.Cores ||
			task.NominalDur != ref.NominalDur {
			t.Fatalf("task %d mismatch:\n got  %+v\n want %+v", got, task, ref)
		}
		got++
		x.TaskDone(task.ID)
	}
	if _, _, ok := x.Next(); ok {
		t.Fatal("expander emitted past Total")
	}
}

// The stage barrier must hold: no later-stage task is emitted while the
// current stage has unfinished tasks.
func TestStageExpanderBarrier(t *testing.T) {
	x, err := expandPipeline("pst").expand()
	if err != nil {
		t.Fatal(err)
	}
	var stage0 []dag.TaskID
	for {
		task, _, ok := x.Next()
		if !ok {
			break
		}
		stage0 = append(stage0, task.ID)
	}
	if len(stage0) != 2 {
		t.Fatalf("stage 0 emitted %d tasks, want 2", len(stage0))
	}
	x.TaskDone(stage0[0])
	if _, _, ok := x.Next(); ok {
		t.Fatal("next stage emitted before barrier cleared")
	}
	x.TaskDone(stage0[1])
	task, _, ok := x.Next()
	if !ok || task.Name != "stage02" {
		t.Fatalf("after barrier: ok=%v name=%q, want stage02", ok, task.Name)
	}
}

// A terminal failure writes off every later stage but must not block the
// failed task's in-flight (or not-yet-emitted) siblings.
func TestStageExpanderFailureSkips(t *testing.T) {
	x, err := expandPipeline("pst").expand()
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := x.Next()
	// Fail t0 before its sibling is even emitted: 3 (stage02) + 1 (analyze).
	if n := x.TaskFailed(first.ID); n != 4 {
		t.Fatalf("TaskFailed skipped %d, want 4", n)
	}
	sib, _, ok := x.Next()
	if !ok || sib.ID != "prep/t1" {
		t.Fatalf("sibling after failure: ok=%v id=%v, want prep/t1", ok, sib)
	}
	x.TaskDone(sib.ID)
	if _, _, ok := x.Next(); ok {
		t.Fatal("dead pipeline emitted a later stage")
	}
	// Accounting closes: 2 terminal + 4 skipped == Total.
	if x.Total() != 6 {
		t.Fatalf("Total = %d, want 6", x.Total())
	}
}

func TestExpandValidation(t *testing.T) {
	// PostExec pipelines expand fine now — dynamic growth is the lazy
	// path's reason to exist; only Compile still rejects them.
	p := &Pipeline{Name: "dyn"}
	p.AddStage(&Stage{Name: "s", PostExec: func(*Pipeline, *Stage) {}}).
		AddTask(&Task{ID: "t", DurationSec: 1})
	if _, err := p.expand(); err != nil {
		t.Fatalf("PostExec pipeline rejected by expand: %v", err)
	}
	if _, err := p.Compile(); err == nil {
		t.Fatal("PostExec pipeline accepted by Compile")
	}
	p2 := &Pipeline{Name: "bad"}
	p2.AddStage(&Stage{Name: "s"}).AddTask(&Task{ID: "t", DurationSec: 0})
	if _, err := p2.expand(); err == nil {
		t.Fatal("non-positive duration accepted")
	}
	p3 := &Pipeline{Name: "dup"}
	s := p3.AddStage(&Stage{Name: "s"})
	s.AddTask(&Task{ID: "t", DurationSec: 1})
	s.AddTask(&Task{ID: "t", DurationSec: 1})
	if _, err := p3.expand(); err == nil {
		t.Fatal("duplicate task id accepted")
	}
}

// drainStage pulls every currently-ready task and completes it, returning
// the emitted IDs — one barrier round.
func drainStage(t *testing.T, x *StageExpander) []dag.TaskID {
	t.Helper()
	var ids []dag.TaskID
	for {
		task, _, ok := x.Next()
		if !ok {
			break
		}
		ids = append(ids, task.ID)
	}
	for _, id := range ids {
		x.TaskDone(id)
	}
	return ids
}

// A PostExec hook growing the pipeline mid-run: the expander's Total grows
// with each appended stage and the appended tasks are emitted in order —
// the dynamic-workflow capability Compile still rejects.
func TestStageExpanderPostExecGrowth(t *testing.T) {
	p := &Pipeline{Name: "adaptive"}
	rounds := 0
	var hook func(pl *Pipeline, s *Stage)
	hook = func(pl *Pipeline, s *Stage) {
		rounds++
		if rounds >= 3 {
			return
		}
		next := &Stage{Name: fmt.Sprintf("round%d", rounds), PostExec: hook}
		for i := 0; i < rounds+1; i++ {
			next.AddTask(&Task{ID: fmt.Sprintf("t%d", i), DurationSec: 5})
		}
		pl.AddStage(next)
	}
	p.AddStage(&Stage{Name: "seed", PostExec: hook}).AddTask(&Task{ID: "t0", DurationSec: 5})

	x, err := p.expand()
	if err != nil {
		t.Fatal(err)
	}
	if x.Total() != 1 {
		t.Fatalf("initial Total = %d, want 1", x.Total())
	}
	var all []dag.TaskID
	for {
		ids := drainStage(t, x)
		if len(ids) == 0 {
			break
		}
		all = append(all, ids...)
	}
	// seed(1) + round1(2) + round2(3); round2's hook appends nothing.
	want := []dag.TaskID{"seed/t0", "round1/t0", "round1/t1", "round2/t0", "round2/t1", "round2/t2"}
	if len(all) != len(want) || x.Total() != len(want) {
		t.Fatalf("emitted %d tasks (Total %d), want %d: %v", len(all), x.Total(), len(want), all)
	}
	for i, id := range want {
		if all[i] != id {
			t.Fatalf("task %d = %q, want %q", i, all[i], id)
		}
	}
	if rounds != 3 {
		t.Fatalf("PostExec fired %d times, want 3", rounds)
	}
}

// A terminal failure suppresses the dead stage's PostExec (failed ensembles
// don't grow) and writes off stages already appended but not yet built.
func TestStageExpanderPostExecSuppressedOnFailure(t *testing.T) {
	p := &Pipeline{Name: "adaptive"}
	fired := false
	st := p.AddStage(&Stage{Name: "seed", PostExec: func(pl *Pipeline, s *Stage) { fired = true }})
	st.AddTask(&Task{ID: "t0", DurationSec: 5})
	st.AddTask(&Task{ID: "t1", DurationSec: 5})
	// A pre-appended later stage, to check the write-off accounting.
	p.AddStage(&Stage{Name: "after"}).AddTask(&Task{ID: "a0", DurationSec: 5})

	x, err := p.expand()
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := x.Next()
	if n := x.TaskFailed(first.ID); n != 1 {
		t.Fatalf("TaskFailed skipped %d, want 1", n)
	}
	sib, _, ok := x.Next()
	if !ok {
		t.Fatal("sibling not emitted after failure")
	}
	x.TaskDone(sib.ID)
	if fired {
		t.Fatal("PostExec fired on a dead stage")
	}
	if _, _, ok := x.Next(); ok {
		t.Fatal("dead pipeline emitted a later stage")
	}
	if x.Total() != 3 {
		t.Fatalf("Total = %d, want 3", x.Total())
	}
}

// Empty stages fire their hooks in passing, exactly like the AppManager's
// runStage — including at expansion time for a leading empty stage.
func TestStageExpanderEmptyStagePostExec(t *testing.T) {
	p := &Pipeline{Name: "empty-hook"}
	p.AddStage(&Stage{Name: "gen", PostExec: func(pl *Pipeline, s *Stage) {
		pl.AddStage(&Stage{Name: "work"}).AddTask(&Task{ID: "t", DurationSec: 2})
	}})
	x, err := p.expand()
	if err != nil {
		t.Fatal(err)
	}
	ids := drainStage(t, x)
	if len(ids) != 1 || ids[0] != "work/t" {
		t.Fatalf("emitted %v, want [work/t]", ids)
	}
	if x.Total() != 1 {
		t.Fatalf("Total = %d, want 1", x.Total())
	}
}
