package pilot

import (
	"errors"
	"fmt"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/rm"
)

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Pending: "pending", Bootstrapping: "bootstrapping", Active: "active", Done: "done",
	}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
}

func TestOnActiveAfterActive(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	eng.RunUntil(1) // pilot granted and active (no bootstrap)
	fired := false
	p.OnActive(func() { fired = true })
	if !fired {
		t.Fatal("OnActive on an active pilot should fire immediately")
	}
}

func TestStartedAtAndSeries(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6, BootstrapSec: 5})
	p.Submit(task("t", 1, 10, nil))
	eng.Run()
	if p.StartedAt() != 0 {
		t.Fatalf("StartedAt = %v", p.StartedAt())
	}
	if got := latest(p.LaunchedSeries().Points()); got != 1 {
		t.Fatalf("launched = %v", got)
	}
	if p.TTX() != 10 {
		t.Fatalf("TTX = %v", p.TTX())
	}
}

func TestTTXBeforeAnyTask(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	eng.Run()
	if p.TTX() != 0 {
		t.Fatalf("idle TTX = %v, want 0", p.TTX())
	}
}

func TestReleaseIdempotentAndBlocksSubmit(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	eng.RunUntil(1)
	p.Release()
	p.Release() // idempotent
	if p.State() != Done {
		t.Fatal("not done after release")
	}
	var err error
	p.Submit(task("x", 1, 1, func(r rm.Result) { err = r.Err }))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("submit after release: err = %v, want ErrRejected", err)
	}
	// Nodes returned to the batch pool: a new pilot can start.
	p2, err := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	p2.Submit(task("y", 1, 1, func(rm.Result) { done = true }))
	eng.Run()
	if !done {
		t.Fatal("second pilot did not run")
	}
}

func TestPilotFailedTaskWithFailFlag(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	var res rm.Result
	bad := task("bad", 1, 30, func(r rm.Result) { res = r })
	bad.Validate = func(n *cluster.Node) error { return fmt.Errorf("application error on %s", n.Name()) }
	p.Submit(bad)
	eng.Run()
	if !res.Failed || res.FinishedAt != 30 {
		t.Fatalf("failed=%v at %v, want failure at 30", res.Failed, res.FinishedAt)
	}
}
