package cwsi

import (
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// WMS adapters model how the engines §3.2 discusses drive a resource
// manager, with and without CWSI support.

// RunResult summarizes one workflow execution for the §3 comparisons.
type RunResult struct {
	Engine           string
	Strategy         string
	Makespan         sim.Time
	RequestedCoreSec float64 // core-seconds reserved from the cluster
	UsedCoreSec      float64 // core-seconds actually computing
}

// Waste returns the fraction of reserved core-seconds left idle.
func (r RunResult) Waste() float64 {
	if r.RequestedCoreSec <= 0 {
		return 0
	}
	return 1 - r.UsedCoreSec/r.RequestedCoreSec
}

// RunAirflowBigWorker models Airflow's Kubernetes strategy (§3.2): "Airflow
// starts a big worker on every node for the whole workflow execution and
// assigns tasks into these worker pods bypassing Kubernetes' task assignment
// logic... the big containers will request resources for the entire workflow
// execution time regardless of the actual load."
//
// Every node is fully reserved from start to finish; tasks are packed into
// worker capacity greedily (FIFO over ready tasks). The result exposes the
// waste at merge points the paper calls out.
func RunAirflowBigWorker(cl *cluster.Cluster, w *dag.Workflow) (RunResult, error) {
	x, err := dag.NewWorkflowExpander(w)
	if err != nil {
		return RunResult{}, err
	}
	// Reserve every node completely for the whole run, and hand the
	// reservations back on every exit, the error exits included. The
	// workers are the reserved nodes again, as a cluster of their own that
	// only the Airflow scheduler packs.
	var allocs []*cluster.Alloc
	defer func() {
		for _, a := range allocs {
			cl.Release(a)
		}
	}()
	var workers []cluster.Spec
	for _, n := range cl.UpNodes() {
		a, err := cl.Allocate(n, n.Type.Cores, n.Type.GPUs, n.Type.MemBytes)
		if err != nil {
			return RunResult{}, fmt.Errorf("cwsi: big-worker reservation failed: %w", err)
		}
		allocs = append(allocs, a)
		workers = append(workers, cluster.Spec{Type: *n.Type, Count: 1})
	}
	usedCoreSec := 0.0
	sr := &rm.StreamRunner{
		Manager:    rm.NewTaskManager(cluster.New(cl.Engine(), "bigworker", workers...), nil),
		Source:     x,
		WorkflowID: w.Name,
		Runtime: func(t *dag.Task, n *cluster.Node) float64 {
			d := rm.DefaultRuntime(t, n)
			usedCoreSec += d * float64(t.Cores)
			return d
		},
	}
	makespan := sr.Run()
	if err := sr.Err(); err != nil {
		return RunResult{}, err
	}
	requested := 0.0
	for _, a := range allocs {
		requested += float64(a.Cores) * float64(makespan)
	}
	return RunResult{
		Engine:           "airflow-bigworker",
		Strategy:         "bigworker",
		Makespan:         makespan,
		RequestedCoreSec: requested,
		UsedCoreSec:      usedCoreSec,
	}, nil
}

// ConcurrentResult reports a multi-tenant run: several workflows sharing one
// cluster under one scheduling policy.
type ConcurrentResult struct {
	Strategy     string
	Makespans    []sim.Time // per workflow, submission order
	MeanMakespan sim.Time
	MaxMakespan  sim.Time
}

// RunConcurrent executes all workflows concurrently on the cluster under the
// given strategy (nil = FIFO baseline) — the shared-cluster setting where
// workflow-aware scheduling pays: the resource manager sees tasks from many
// DAGs interleaved and, with CWSI, can order them by workflow criticality.
func RunConcurrent(cl *cluster.Cluster, wfs []*dag.Workflow, strategy Strategy) (*ConcurrentResult, error) {
	mgr := rm.NewTaskManager(cl, nil)
	if strategy == nil {
		strategy = Baseline{}
	}
	cws := New(mgr, strategy, nil)
	res := &ConcurrentResult{Strategy: strategy.Name(), Makespans: make([]sim.Time, len(wfs))}
	runners := make([]*rm.StreamRunner, len(wfs))
	eng := cl.Engine()
	start := eng.Now()
	for i, w := range wfs {
		id := fmt.Sprintf("%s#%d", w.Name, i)
		if err := cws.RegisterWorkflow(id, w); err != nil {
			return nil, err
		}
		x, err := dag.NewWorkflowExpander(w)
		if err != nil {
			return nil, err
		}
		sr := &rm.StreamRunner{Manager: mgr, Source: x}
		if err := cws.Bind(sr, id, 0, 0); err != nil {
			return nil, err
		}
		sr.OnComplete = func() { res.Makespans[i] = eng.Now() - start }
		runners[i] = sr
		sr.Start()
	}
	eng.Run()
	// The first failed or stalled workflow fails the run.
	for _, sr := range runners {
		if err := sr.Err(); err != nil {
			return nil, err
		}
	}
	var sum sim.Time
	for _, ms := range res.Makespans {
		sum += ms
		if ms > res.MaxMakespan {
			res.MaxMakespan = ms
		}
	}
	res.MeanMakespan = sum / sim.Time(len(res.Makespans))
	return res, nil
}
