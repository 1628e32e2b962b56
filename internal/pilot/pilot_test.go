package pilot

import (
	"fmt"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func setup(nodes int) (*sim.Engine, *cluster.Cluster, *rm.BatchManager) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "t", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 8, GPUs: 1, MemBytes: 1e12},
		Count: nodes,
	})
	return eng, cl, rm.NewBatchManager(cl, nil)
}

func TestPilotLifecycle(t *testing.T) {
	eng, cl, bm := setup(4)
	p, err := Submit(bm, cl, Config{Nodes: 4, Walltime: 10000, BootstrapSec: 85})
	if err != nil {
		t.Fatal(err)
	}
	if p.State() != Pending {
		t.Fatalf("state = %v, want pending", p.State())
	}
	activeAt := sim.Time(-1)
	p.OnActive(func() { activeAt = eng.Now() })
	var res TaskResult
	p.SubmitTask(&Task{ID: "t1", Nodes: 2, DurationSec: 100, Done: func(r TaskResult) { res = r }})
	eng.Run()
	if activeAt != 85 {
		t.Fatalf("agent active at %v, want 85", activeAt)
	}
	if p.Overhead() != 85 {
		t.Fatalf("Overhead = %v, want 85", p.Overhead())
	}
	if res.Failed || res.FinishedAt != 185 {
		t.Fatalf("task result: failed=%v finished=%v, want 185", res.Failed, res.FinishedAt)
	}
	if p.CompletedTasks() != 1 {
		t.Fatalf("completed = %d", p.CompletedTasks())
	}
	p.Release()
	if p.State() != Done {
		t.Fatal("Release did not finish pilot")
	}
}

func TestPilotQueuesUntilNodesFree(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 10000})
	var ends []sim.Time
	done := func(r TaskResult) { ends = append(ends, r.FinishedAt) }
	p.SubmitTask(&Task{ID: "a", Nodes: 2, DurationSec: 50, Done: done})
	p.SubmitTask(&Task{ID: "b", Nodes: 2, DurationSec: 50, Done: done})
	eng.Run()
	if len(ends) != 2 || ends[0] != 50 || ends[1] != 100 {
		t.Fatalf("ends = %v, want [50 100]", ends)
	}
}

func TestPilotSkipOverScheduling(t *testing.T) {
	// A 2-node task blocked behind a 4-node task should not starve when
	// only 2 nodes are free.
	eng, cl, bm := setup(4)
	p, _ := Submit(bm, cl, Config{Nodes: 4, Walltime: 10000})
	var order []string
	done := func(r TaskResult) { order = append(order, r.Task.ID) }
	p.SubmitTask(&Task{ID: "hog", Nodes: 2, DurationSec: 100, Done: done})
	p.SubmitTask(&Task{ID: "big", Nodes: 4, DurationSec: 10, Done: done})
	p.SubmitTask(&Task{ID: "small", Nodes: 2, DurationSec: 10, Done: done})
	eng.Run()
	// small (2 nodes) fits alongside hog; big must wait for all 4.
	if len(order) != 3 || order[0] != "small" {
		t.Fatalf("order = %v, want small first", order)
	}
}

func TestPilotSchedulingRate(t *testing.T) {
	eng, cl, bm := setup(10)
	p, _ := Submit(bm, cl, Config{Nodes: 10, Walltime: 1e6, SchedRate: 10}) // 10 tasks/s
	n := 100
	for i := 0; i < n; i++ {
		p.SubmitTask(&Task{ID: fmt.Sprintf("t%03d", i), Nodes: 1, DurationSec: 0.001})
	}
	eng.Run()
	// 100 tasks at 10/s ≈ 10s of scheduling.
	pts := p.ScheduledSeries().Points()
	last := pts[len(pts)-1]
	if last.T < 9.5 || last.T > 11 {
		t.Fatalf("last scheduling event at %v, want ~10s", last.T)
	}
	if p.CompletedTasks() != n {
		t.Fatalf("completed = %d", p.CompletedTasks())
	}
}

func TestPilotLaunchRateBoundsConcurrencyRamp(t *testing.T) {
	eng, cl, bm := setup(100)
	p, _ := Submit(bm, cl, Config{Nodes: 100, Walltime: 1e6, SchedRate: 0, LaunchRate: 2})
	for i := 0; i < 50; i++ {
		p.SubmitTask(&Task{ID: fmt.Sprintf("t%03d", i), Nodes: 1, DurationSec: 1000})
	}
	eng.RunUntil(10)
	// At 2 launches/s, ~20 tasks running after 10 s despite 100 free nodes.
	running := p.RunningSeries().Value()
	if running < 18 || running > 22 {
		t.Fatalf("running after 10s = %v, want ~20", running)
	}
	eng.Run()
}

func TestPilotNodeFailureKillsTask(t *testing.T) {
	eng, cl, bm := setup(4)
	p, _ := Submit(bm, cl, Config{Nodes: 4, Walltime: 1e6})
	var failed, ok []string
	done := func(r TaskResult) {
		if r.Failed {
			failed = append(failed, r.Task.ID)
		} else {
			ok = append(ok, r.Task.ID)
		}
	}
	p.SubmitTask(&Task{ID: "a", Nodes: 2, DurationSec: 100, Done: done})
	p.SubmitTask(&Task{ID: "b", Nodes: 2, DurationSec: 100, Done: done})
	eng.At(50, func() {
		// Fail one node of task a.
		for _, q := range p.running {
			if q.task.ID == "a" {
				cl.FailNode(q.nodes[0])
				return
			}
		}
		t.Error("task a not running at t=50")
	})
	eng.Run()
	if len(failed) != 1 || failed[0] != "a" {
		t.Fatalf("failed = %v", failed)
	}
	if len(ok) != 1 || ok[0] != "b" {
		t.Fatalf("ok = %v", ok)
	}
	// Pool lost the dead node: 4 - 2(b ran and returned) ... after run all
	// healthy nodes return: 3 healthy free.
	if p.FreeNodes() != 3 {
		t.Fatalf("free nodes = %d, want 3", p.FreeNodes())
	}
}

func TestPilotResubmitAfterNodeFailure(t *testing.T) {
	eng, cl, bm := setup(4)
	p, _ := Submit(bm, cl, Config{Nodes: 4, Walltime: 1e6})
	attempts := 0
	var submit func(id string)
	submit = func(id string) {
		p.SubmitTask(&Task{ID: id, Nodes: 1, DurationSec: 100, Done: func(r TaskResult) {
			attempts++
			if r.Failed {
				submit(id + "r")
			}
		}})
	}
	submit("a")
	eng.At(10, func() {
		for _, q := range p.running {
			cl.FailNode(q.nodes[0])
		}
	})
	eng.Run()
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (fail + success)", attempts)
	}
	if p.CompletedTasks() != 1 || p.FailedTasks() != 1 {
		t.Fatalf("completed=%d failed=%d", p.CompletedTasks(), p.FailedTasks())
	}
}

func TestPilotWalltimeExpiryFailsEverything(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 50})
	results := map[string]bool{}
	p.SubmitTask(&Task{ID: "run", Nodes: 2, DurationSec: 100, Done: func(r TaskResult) { results["run"] = r.Failed }})
	p.SubmitTask(&Task{ID: "wait", Nodes: 2, DurationSec: 100, Done: func(r TaskResult) { results["wait"] = r.Failed }})
	eng.Run()
	if !results["run"] || !results["wait"] {
		t.Fatalf("walltime expiry should fail all tasks: %v", results)
	}
	if p.State() != Done {
		t.Fatal("pilot not done after expiry")
	}
}

func TestPilotSubmitErrors(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	if err := p.SubmitTask(&Task{ID: "big", Nodes: 5, DurationSec: 1}); err == nil {
		t.Fatal("oversized task accepted")
	}
	if err := p.SubmitTask(&Task{ID: "zero", Nodes: 0, DurationSec: 1}); err == nil {
		t.Fatal("zero-node task accepted")
	}
	eng.Run()
	p.Release()
	if err := p.SubmitTask(&Task{ID: "late", Nodes: 1, DurationSec: 1}); err == nil {
		t.Fatal("submit after release accepted")
	}
}

func TestPilotTTX(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6, BootstrapSec: 10})
	p.SubmitTask(&Task{ID: "a", Nodes: 1, DurationSec: 30})
	p.SubmitTask(&Task{ID: "b", Nodes: 1, DurationSec: 50})
	eng.Run()
	if p.TTX() != 50 { // both start at 10, last ends at 60
		t.Fatalf("TTX = %v, want 50", p.TTX())
	}
}

func TestPilotUtilizationSeries(t *testing.T) {
	eng, cl, bm := setup(4)
	p, _ := Submit(bm, cl, Config{Nodes: 4, Walltime: 1e6})
	p.SubmitTask(&Task{ID: "a", Nodes: 4, DurationSec: 100})
	eng.Run()
	// Busy-node integral: 4 nodes × 100s.
	got := p.BusyNodesSeries().Integral(0, 100)
	if got != 400 {
		t.Fatalf("busy-node integral = %v, want 400", got)
	}
}
