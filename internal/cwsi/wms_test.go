package cwsi

import (
	"errors"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func flatCluster(nodes, cores int) *cluster.Cluster {
	return cluster.New(sim.NewEngine(), "flat", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: cores, MemBytes: 64e9},
		Count: nodes,
	})
}

func TestRunConcurrentAllComplete(t *testing.T) {
	cl := flatCluster(2, 8)
	opts := dag.GenOpts{MeanDur: 100, CVDur: 0.5}
	wfs := []*dag.Workflow{
		dag.Chain(randx.New(1), 5, opts),
		dag.Diamond(randx.New(2), opts),
		dag.ForkJoin(randx.New(3), 2, 4, opts),
	}
	res, err := RunConcurrent(cl, wfs, Rank{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Makespans) != 3 {
		t.Fatalf("makespans = %d", len(res.Makespans))
	}
	for i, ms := range res.Makespans {
		if ms <= 0 {
			t.Fatalf("workflow %d makespan = %v", i, ms)
		}
		if ms > res.MaxMakespan {
			t.Fatal("MaxMakespan wrong")
		}
	}
	if res.MeanMakespan <= 0 || res.MeanMakespan > res.MaxMakespan {
		t.Fatalf("mean = %v max = %v", res.MeanMakespan, res.MaxMakespan)
	}
	if res.Strategy != "rank" {
		t.Fatalf("strategy = %q", res.Strategy)
	}
}

func TestRunConcurrentNilStrategyIsFIFO(t *testing.T) {
	cl := flatCluster(2, 8)
	wfs := []*dag.Workflow{dag.Chain(randx.New(1), 3, dag.GenOpts{MeanDur: 50})}
	res, err := RunConcurrent(cl, wfs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "fifo" {
		t.Fatalf("strategy = %q, want fifo", res.Strategy)
	}
}

func TestRunConcurrentSameNameWorkflows(t *testing.T) {
	// Two instances of the same workflow name must not collide (they get
	// distinct registration IDs).
	cl := flatCluster(2, 8)
	opts := dag.GenOpts{MeanDur: 50}
	wfs := []*dag.Workflow{
		dag.Chain(randx.New(1), 3, opts),
		dag.Chain(randx.New(1), 3, opts),
	}
	res, err := RunConcurrent(cl, wfs, Rank{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Makespans) != 2 || res.Makespans[0] <= 0 || res.Makespans[1] <= 0 {
		t.Fatalf("makespans = %v", res.Makespans)
	}
}

func TestRunConcurrentAwareHelpsUnderContention(t *testing.T) {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4}
	mkWfs := func() []*dag.Workflow {
		r := randx.New(99)
		return []*dag.Workflow{
			dag.RNASeqLike(r.Fork(), 10, opts),
			dag.MontageLike(r.Fork(), 12, opts),
			dag.ForkJoin(r.Fork(), 3, 8, opts),
		}
	}
	base, err := RunConcurrent(flatCluster(2, 8), mkWfs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rank, err := RunConcurrent(flatCluster(2, 8), mkWfs(), Rank{})
	if err != nil {
		t.Fatal(err)
	}
	// Rank should not be worse than FIFO by more than noise on this seed,
	// and the grand total work is conserved either way: check mean.
	if float64(rank.MeanMakespan) > float64(base.MeanMakespan)*1.05 {
		t.Fatalf("rank mean %v much worse than fifo %v", rank.MeanMakespan, base.MeanMakespan)
	}
}

func TestBindUnregistered(t *testing.T) {
	cl := flatCluster(1, 4)
	mgr := rm.NewTaskManager(cl, nil)
	cws := New(mgr, Baseline{}, nil)
	if err := cws.Bind(&rm.StreamRunner{Manager: mgr}, "ghost", 0, 0); err == nil {
		t.Fatal("unregistered workflow bound")
	}
}

func TestRunAirflowBigWorkerInvalidWorkflow(t *testing.T) {
	cl := flatCluster(2, 8)
	w := dag.New("bad")
	w.Add(&dag.Task{ID: "a", Deps: []dag.TaskID{"ghost"}})
	if _, err := RunAirflowBigWorker(cl, w); err == nil {
		t.Fatal("invalid workflow accepted")
	}
}

func TestRunAirflowBigWorkerReleasesCluster(t *testing.T) {
	cl := flatCluster(2, 8)
	w := dag.ForkJoin(randx.New(5), 2, 4, dag.GenOpts{MeanDur: 60})
	if _, err := RunAirflowBigWorker(cl, w); err != nil {
		t.Fatal(err)
	}
	for _, n := range cl.Nodes() {
		if n.FreeCores() != n.Type.Cores {
			t.Fatal("big-worker reservation leaked")
		}
	}
}

// Both error exits release the reservations already made: a task no worker
// can hold stalls the run, and a node that is not wholly free fails the
// reservation loop after the first node was reserved.
func TestRunAirflowBigWorkerReleasesOnError(t *testing.T) {
	allFree := func(cl *cluster.Cluster, want int) {
		t.Helper()
		free := 0
		for _, n := range cl.Nodes() {
			free += n.FreeCores()
		}
		if free != want {
			t.Fatalf("%d of %d cores free after the error", free, want)
		}
	}
	stall := flatCluster(2, 4)
	w := dag.New("too-wide")
	w.Add(&dag.Task{ID: "a", Cores: 16, NominalDur: 10})
	if _, err := RunAirflowBigWorker(stall, w); err == nil {
		t.Fatal("a 16-core task on 4-core workers did not stall")
	}
	allFree(stall, 8)

	busy := flatCluster(2, 4)
	held, err := busy.Allocate(busy.Nodes()[1], 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAirflowBigWorker(busy, dag.Chain(randx.New(1), 2, dag.GenOpts{MeanDur: 10})); err == nil {
		t.Fatal("reservation of a partly used node succeeded")
	}
	allFree(busy, 7)
	busy.Release(held)
}

// A task wider than every node stalls the concurrent and big-worker runs,
// which return the runner's *rm.StallError.
func TestStalledWMSRunsReturnStallError(t *testing.T) {
	wide := func() *dag.Workflow {
		w := dag.New("wide")
		w.Add(&dag.Task{ID: "a", Cores: 1, NominalDur: 10})
		w.Add(&dag.Task{ID: "b", Cores: 64, NominalDur: 10, Deps: []dag.TaskID{"a"}})
		return w
	}
	var se *rm.StallError
	_, err := RunConcurrent(flatCluster(2, 8), []*dag.Workflow{wide()}, nil)
	if !errors.As(err, &se) || se.Done != 1 || se.Total != 2 {
		t.Fatalf("RunConcurrent: err = %v, want a 1/2 *rm.StallError", err)
	}
	_, err = RunAirflowBigWorker(flatCluster(2, 8), wide())
	if !errors.As(err, &se) || se.Workflow != "wide" || se.Done != 1 || se.Total != 2 {
		t.Fatalf("RunAirflowBigWorker: err = %v, want a 1/2 *rm.StallError", err)
	}
}
