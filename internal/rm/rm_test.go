package rm

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

func testCluster(eng *sim.Engine, nodes, cores int) *cluster.Cluster {
	return cluster.New(eng, "t", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: cores, GPUs: 2, MemBytes: 1e12},
		Count: nodes,
	})
}

func fixedRuntime(d float64) func(*cluster.Node) float64 {
	return func(*cluster.Node) float64 { return d }
}

// runWorkflow drives w through sr over a dag.WorkflowExpander and returns
// the makespan and every task's terminal result (skipped tasks have none).
func runWorkflow(t testing.TB, sr *StreamRunner, w *dag.Workflow) (sim.Time, map[dag.TaskID]Result) {
	t.Helper()
	x, err := dag.NewWorkflowExpander(w)
	if err != nil {
		t.Fatal(err)
	}
	results := map[dag.TaskID]Result{}
	sr.Source = x
	if sr.WorkflowID == "" {
		sr.WorkflowID = w.Name
	}
	sr.Observe = func(task *dag.Task, r Result) { results[task.ID] = r }
	return sr.Run(), results
}

// failPlan keys per-task transient failure counts by insertion index, the
// form StreamRunner.FailPlan takes.
func failPlan(w *dag.Workflow, fails map[dag.TaskID]int) func(int) int {
	plan := make([]int, w.Len())
	for i, task := range w.Tasks() {
		plan[i] = fails[task.ID]
	}
	return func(i int) int { return plan[i] }
}

func TestTaskManagerRunsTask(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 4), nil)
	var res Result
	m.Submit(&Submission{TaskID: "a", Cores: 2, Runtime: fixedRuntime(10), Done: func(r Result) { res = r }})
	eng.Run()
	if res.Submission == nil || res.Failed {
		t.Fatalf("task did not complete: %+v", res)
	}
	if res.FinishedAt != 10 {
		t.Fatalf("finished at %v, want 10", res.FinishedAt)
	}
	if m.Completed() != 1 || len(m.running) != 0 {
		t.Fatalf("completed=%d running=%d", m.Completed(), len(m.running))
	}
}

func TestTaskManagerQueuesWhenFull(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 4), nil)
	var order []string
	done := func(r Result) { order = append(order, string(r.Submission.TaskID)) }
	// Two 3-core tasks cannot run together on a 4-core node.
	m.Submit(&Submission{TaskID: "a", Cores: 3, Runtime: fixedRuntime(10), Done: done})
	m.Submit(&Submission{TaskID: "b", Cores: 3, Runtime: fixedRuntime(10), Done: done})
	eng.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	if eng.Now() != 20 {
		t.Fatalf("makespan = %v, want 20 (serialized)", eng.Now())
	}
}

func TestTaskManagerParallelWhenFits(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 2, 4), nil)
	n := 0
	for _, id := range []string{"a", "b"} {
		m.Submit(&Submission{TaskID: dag.TaskID(id), Cores: 4, Runtime: fixedRuntime(10), Done: func(Result) { n++ }})
	}
	eng.Run()
	if n != 2 || eng.Now() != 10 {
		t.Fatalf("parallel run: n=%d end=%v, want 2 tasks at t=10", n, eng.Now())
	}
}

func TestTaskManagerNodeFailureFailsRunning(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 2, 4)
	m := NewTaskManager(cl, nil)
	var failedIDs []string
	var okIDs []string
	done := func(r Result) {
		if r.Failed {
			failedIDs = append(failedIDs, string(r.Submission.TaskID))
		} else {
			okIDs = append(okIDs, string(r.Submission.TaskID))
		}
	}
	m.Submit(&Submission{TaskID: "a", Cores: 4, Runtime: fixedRuntime(100), Done: done})
	m.Submit(&Submission{TaskID: "b", Cores: 4, Runtime: fixedRuntime(100), Done: done})
	eng.At(50, func() {
		// Fail the node running "a".
		for _, r := range m.running {
			if r.sub.TaskID == "a" {
				cl.FailNode(r.alloc.Node)
				return
			}
		}
		t.Error("task a not running at t=50")
	})
	eng.Run()
	if len(failedIDs) != 1 || failedIDs[0] != "a" {
		t.Fatalf("failed = %v, want [a]", failedIDs)
	}
	if len(okIDs) != 1 || okIDs[0] != "b" {
		t.Fatalf("ok = %v, want [b]", okIDs)
	}
	if m.Failed() != 1 {
		t.Fatalf("Failed() = %d", m.Failed())
	}
}

func TestTaskManagerResubmitAfterFailure(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 2, 4)
	m := NewTaskManager(cl, nil)
	attempts := 0
	var submit func(id string)
	submit = func(id string) {
		m.Submit(&Submission{TaskID: dag.TaskID(id), Cores: 1, Runtime: fixedRuntime(100), Done: func(r Result) {
			attempts++
			if r.Failed && attempts < 3 {
				submit(id + "r")
			}
		}})
	}
	submit("a")
	eng.At(10, func() { cl.FailNode(cl.Nodes()[0]) })
	eng.Run()
	if attempts < 2 {
		t.Fatalf("attempts = %d, want retry after failure", attempts)
	}
}

func TestStreamRunnerChain(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 4, 8), nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", NominalDur: 20, Deps: []dag.TaskID{"a"}})
	w.Add(&dag.Task{ID: "c", NominalDur: 30, Deps: []dag.TaskID{"b"}})
	ms, results := runWorkflow(t, &StreamRunner{Manager: m}, w)
	if ms != 60 {
		t.Fatalf("makespan = %v, want 60", ms)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
}

func TestStreamRunnerParallelBranches(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 4, 8), nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "s", NominalDur: 5})
	w.Add(&dag.Task{ID: "l", NominalDur: 10, Deps: []dag.TaskID{"s"}})
	w.Add(&dag.Task{ID: "r", NominalDur: 40, Deps: []dag.TaskID{"s"}})
	w.Add(&dag.Task{ID: "t", NominalDur: 5, Deps: []dag.TaskID{"l", "r"}})
	ms, _ := runWorkflow(t, &StreamRunner{Manager: m}, w)
	if ms != 50 { // 5 + max(10,40) + 5
		t.Fatalf("makespan = %v, want 50", ms)
	}
}

func TestStreamRunnerHeterogeneousSpeed(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "h", cluster.Spec{
		Type:  cluster.NodeType{Name: "fast", Cores: 4, SpeedFactor: 2, IOFactor: 1, MemBytes: 1e12},
		Count: 1,
	})
	m := NewTaskManager(cl, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 100, IOFrac: 0}) // pure CPU
	ms, _ := runWorkflow(t, &StreamRunner{Manager: m}, w)
	if ms != 50 { // speed factor 2 halves CPU time
		t.Fatalf("makespan = %v, want 50", ms)
	}
}

func TestStreamRunnerRandomWorkflow(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 8, 16), nil)
	rng := randx.New(5)
	w := dag.RandomLayered(rng, 5, 8, dag.GenOpts{MeanDur: 60})
	ms, results := runWorkflow(t, &StreamRunner{Manager: m, WorkflowID: "rand"}, w)
	cp, _ := w.CriticalPath(dag.NominalDur)
	if float64(ms) < cp-1e-6 {
		t.Fatalf("makespan %v below critical path %v", ms, cp)
	}
	if len(results) != w.Len() {
		t.Fatalf("results = %d, want %d", len(results), w.Len())
	}
	for id, r := range results {
		if r.Failed {
			t.Fatalf("task %s failed", id)
		}
	}
}

func TestBatchManagerGrantAndRelease(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 4, 8)
	m := NewBatchManager(cl, nil)
	var alloc *BatchAlloc
	err := m.Submit(&BatchJob{ID: "j1", Account: "a", Nodes: 2, Walltime: 1000,
		OnStart: func(a *BatchAlloc) { alloc = a }})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(10, func() {
		if alloc == nil {
			t.Error("job not started by t=10")
			return
		}
		if len(alloc.Nodes) != 2 {
			t.Errorf("granted %d nodes", len(alloc.Nodes))
		}
		alloc.Release()
	})
	eng.Run()
	if len(m.live) != 0 || m.Started() != 1 {
		t.Fatalf("running=%d started=%d", len(m.live), m.Started())
	}
	if got := m.usage["a"]; got != 20 { // 2 nodes × 10s
		t.Fatalf("usage = %v, want 20", got)
	}
}

func TestBatchManagerWalltimeExpiry(t *testing.T) {
	eng := sim.NewEngine()
	m := NewBatchManager(testCluster(eng, 2, 8), nil)
	expired := false
	if err := m.Submit(&BatchJob{ID: "j", Account: "a", Nodes: 2, Walltime: 50,
		OnExpire: func() { expired = true }}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !expired || len(m.live) != 0 {
		t.Fatalf("expired=%v, %d allocations still live", expired, len(m.live))
	}
	if eng.Now() != 50 {
		t.Fatalf("expiry at %v, want 50", eng.Now())
	}
}

func TestBatchManagerQueueing(t *testing.T) {
	eng := sim.NewEngine()
	m := NewBatchManager(testCluster(eng, 2, 8), nil)
	var starts []sim.Time
	mk := func(id string) *BatchJob {
		return &BatchJob{ID: id, Account: "a", Nodes: 2, Walltime: 100,
			OnStart: func(a *BatchAlloc) {
				starts = append(starts, eng.Now())
				eng.After(30, a.Release)
			}}
	}
	m.Submit(mk("j1"))
	m.Submit(mk("j2"))
	eng.Run()
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 30 {
		t.Fatalf("starts = %v, want [0 30]", starts)
	}
}

func TestBatchManagerFairShare(t *testing.T) {
	eng := sim.NewEngine()
	m := NewBatchManager(testCluster(eng, 2, 8), nil)
	var order []string
	run := func(id, account string) *BatchJob {
		return &BatchJob{ID: id, Account: account, Nodes: 2, Walltime: 1000,
			OnStart: func(a *BatchAlloc) {
				order = append(order, id)
				eng.After(10, a.Release)
			}}
	}
	// heavy uses the machine first; then both queue — light should win.
	m.Submit(run("h1", "heavy"))
	eng.At(1, func() {
		m.Submit(run("h2", "heavy"))
		m.Submit(run("l1", "light"))
	})
	eng.Run()
	if len(order) != 3 || order[1] != "l1" {
		t.Fatalf("order = %v, want light before heavy's second job", order)
	}
}

func TestBatchManagerRejects(t *testing.T) {
	eng := sim.NewEngine()
	m := NewBatchManager(testCluster(eng, 2, 8), FrontierPolicy)
	if err := m.Submit(&BatchJob{ID: "big", Account: "a", Nodes: 5}); err == nil {
		t.Fatal("oversized job accepted")
	}
	if err := m.Submit(&BatchJob{ID: "zero", Account: "a", Nodes: 0}); err == nil {
		t.Fatal("zero-node job accepted")
	}
	if err := m.Submit(&BatchJob{ID: "long", Account: "a", Nodes: 1, Walltime: 100 * 3600}); err == nil {
		t.Fatal("over-walltime job accepted")
	}
}

func TestFrontierPolicyTiers(t *testing.T) {
	if FrontierPolicy(8000) != 24*3600 {
		t.Fatal("full-machine tier wrong")
	}
	if FrontierPolicy(10) != 2*3600 {
		t.Fatal("small tier wrong")
	}
	if FrontierPolicy(125) != 6*3600 {
		t.Fatal("mid tier wrong")
	}
	if FrontierPolicy(2000) != 12*3600 {
		t.Fatal("upper-mid tier wrong")
	}
}
