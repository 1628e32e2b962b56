package pilot

import (
	"errors"
	"fmt"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/metrics"
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

// task builds a submission of nodes whole nodes of setup's 8-core type that
// runs dur seconds; done, when non-nil, receives its result.
// latest returns a series' last recorded value: the count or level now.
func latest(pts []metrics.Point) float64 { return pts[len(pts)-1].V }

func task(id string, nodes int, dur float64, done func(rm.Result)) *rm.Submission {
	return &rm.Submission{
		TaskID:  dag.TaskID(id),
		Cores:   8 * nodes,
		Runtime: func(*cluster.Node) float64 { return dur },
		Done:    done,
	}
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
	var res rm.Result
	p.Submit(task("t1", 2, 100, func(r rm.Result) { res = r }))
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
	p.Release()
	if p.State() != Done {
		t.Fatal("Release did not finish pilot")
	}
}

func TestPilotQueuesUntilNodesFree(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 10000})
	var ends []sim.Time
	done := func(r rm.Result) { ends = append(ends, r.FinishedAt) }
	p.Submit(task("a", 2, 50, done))
	p.Submit(task("b", 2, 50, done))
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
	done := func(r rm.Result) { order = append(order, string(r.Submission.TaskID)) }
	p.Submit(task("hog", 2, 100, done))
	p.Submit(task("big", 4, 10, done))
	p.Submit(task("small", 2, 10, done))
	eng.Run()
	// small (2 nodes) fits alongside hog; big must wait for all 4.
	if len(order) != 3 || order[0] != "small" {
		t.Fatalf("order = %v, want small first", order)
	}
}

func TestPilotSchedulingRate(t *testing.T) {
	eng, cl, bm := setup(10)
	p, _ := Submit(bm, cl, Config{Nodes: 10, Walltime: 1e6, SchedRate: 10}) // 10 tasks/s
	n, completed := 100, 0
	for i := 0; i < n; i++ {
		p.Submit(task(fmt.Sprintf("t%03d", i), 1, 0.001, func(r rm.Result) {
			if !r.Failed {
				completed++
			}
		}))
	}
	eng.Run()
	// 100 tasks at 10/s ≈ 10s of scheduling.
	pts := p.ScheduledSeries().Points()
	last := pts[len(pts)-1]
	if last.T < 9.5 || last.T > 11 {
		t.Fatalf("last scheduling event at %v, want ~10s", last.T)
	}
	if completed != n {
		t.Fatalf("completed = %d", completed)
	}
}

func TestPilotLaunchRateBoundsConcurrencyRamp(t *testing.T) {
	eng, cl, bm := setup(100)
	p, _ := Submit(bm, cl, Config{Nodes: 100, Walltime: 1e6, SchedRate: 0, LaunchRate: 2})
	for i := 0; i < 50; i++ {
		p.Submit(task(fmt.Sprintf("t%03d", i), 1, 1000, nil))
	}
	eng.RunUntil(10)
	// At 2 launches/s, ~20 tasks running after 10 s despite 100 free nodes.
	running := latest(p.RunningSeries().Points())
	if running < 18 || running > 22 {
		t.Fatalf("running after 10s = %v, want ~20", running)
	}
	eng.Run()
}

func TestPilotNodeFailureKillsTask(t *testing.T) {
	eng, cl, bm := setup(4)
	p, _ := Submit(bm, cl, Config{Nodes: 4, Walltime: 1e6})
	var failed, ok []string
	var cause error
	var dead *cluster.Node
	done := func(r rm.Result) {
		if r.Failed {
			failed = append(failed, string(r.Submission.TaskID))
			cause = r.Err
		} else {
			ok = append(ok, string(r.Submission.TaskID))
		}
	}
	p.Submit(task("a", 2, 100, done))
	p.Submit(task("b", 2, 100, done))
	eng.At(50, func() {
		// Fail one node of task a.
		for _, q := range p.running {
			if q.sub.TaskID == "a" {
				dead = q.nodes[0]
				cl.FailNode(dead)
				return
			}
		}
		t.Error("task a not running at t=50")
	})
	eng.Run()
	if len(failed) != 1 || failed[0] != "a" {
		t.Fatalf("failed = %v", failed)
	}
	var nf *rm.NodeFailedError
	if want := "pilot: node " + dead.Name() + " failed"; cause == nil || cause.Error() != want || !errors.As(cause, &nf) {
		t.Fatalf("cause = %v, want %q as *rm.NodeFailedError", cause, want)
	}
	if len(ok) != 1 || ok[0] != "b" {
		t.Fatalf("ok = %v", ok)
	}
	// Pool lost the dead node: 4 - 2(b ran and returned) ... after run all
	// healthy nodes return: 3 healthy free.
	if len(p.freeNodes) != 3 {
		t.Fatalf("free nodes = %d, want 3", len(p.freeNodes))
	}
}

func TestPilotResubmitAfterNodeFailure(t *testing.T) {
	eng, cl, bm := setup(4)
	p, _ := Submit(bm, cl, Config{Nodes: 4, Walltime: 1e6})
	attempts, failed := 0, 0
	var submit func(id string)
	submit = func(id string) {
		p.Submit(task(id, 1, 100, func(r rm.Result) {
			attempts++
			if r.Failed {
				failed++
				submit(id + "r")
			}
		}))
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
	if attempts-failed != 1 || failed != 1 {
		t.Fatalf("completed=%d failed=%d", attempts-failed, failed)
	}
}

func TestPilotWalltimeExpiryFailsEverything(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 50})
	results := map[string]bool{}
	p.Submit(task("run", 2, 100, func(r rm.Result) { results["run"] = r.Failed }))
	p.Submit(task("wait", 2, 100, func(r rm.Result) { results["wait"] = r.Failed }))
	eng.Run()
	if !results["run"] || !results["wait"] {
		t.Fatalf("walltime expiry should fail all tasks: %v", results)
	}
	if p.State() != Done {
		t.Fatal("pilot not done after expiry")
	}
}

// Walltime expiry kills the running tasks in submission-ID order, whatever
// order the running map yields them in.
func TestPilotWalltimeKillsInIDOrder(t *testing.T) {
	eng, cl, bm := setup(6)
	p, _ := Submit(bm, cl, Config{Nodes: 6, Walltime: 50})
	var killed []string
	for _, id := range []string{"c", "a#2", "b", "a", "f", "d"} {
		p.Submit(task(id, 1, 100, func(r rm.Result) { killed = append(killed, string(r.Submission.TaskID)) }))
	}
	eng.Run()
	if got, want := fmt.Sprint(killed), "[a a#2 b c d f]"; got != want {
		t.Fatalf("kill order %s, want %s", got, want)
	}
}

// A walltime that ends during bootstrap leaves the pilot done: the agent
// never becomes active on the reclaimed nodes.
func TestPilotExpiryDuringBootstrap(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 10, BootstrapSec: 85})
	activated := false
	p.OnActive(func() { activated = true })
	eng.Run()
	if activated || p.State() != Done {
		t.Fatalf("activated=%v state=%v after expiry at 10s during an 85s bootstrap", activated, p.State())
	}
	var res rm.Result
	p.Submit(task("late", 1, 10, func(r rm.Result) { res = r }))
	if !res.Failed || !errors.Is(res.Err, ErrRejected) {
		t.Fatalf("submission to the expired pilot: %+v", res)
	}
}

func TestPilotSubmitErrors(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	// A refused task fails inside Submit, before the engine runs.
	submit := func(id string, nodes int) error {
		var err error
		p.Submit(task(id, nodes, 1, func(r rm.Result) { err = r.Err }))
		return err
	}
	if err := submit("big", 5); !errors.Is(err, ErrRejected) {
		t.Fatalf("oversized task: err = %v, want ErrRejected", err)
	}
	if err := submit("zero", 0); !errors.Is(err, ErrRejected) {
		t.Fatalf("zero-node task: err = %v, want ErrRejected", err)
	}
	eng.Run()
	p.Release()
	if err := submit("late", 1); !errors.Is(err, ErrRejected) {
		t.Fatalf("submit after release: err = %v, want ErrRejected", err)
	}
}

func TestPilotTTX(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6, BootstrapSec: 10})
	p.Submit(task("a", 1, 30, nil))
	p.Submit(task("b", 1, 50, nil))
	eng.Run()
	if p.TTX() != 50 { // both start at 10, last ends at 60
		t.Fatalf("TTX = %v, want 50", p.TTX())
	}
}

func TestPilotUtilizationSeries(t *testing.T) {
	eng, cl, bm := setup(4)
	p, _ := Submit(bm, cl, Config{Nodes: 4, Walltime: 1e6})
	p.Submit(task("a", 4, 100, nil))
	eng.Run()
	// Busy-node integral: 4 nodes × 100s.
	got := p.BusyNodesSeries().Integral(0, 100)
	if got != 400 {
		t.Fatalf("busy-node integral = %v, want 400", got)
	}
}
