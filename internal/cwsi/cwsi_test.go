package cwsi

import (
	"encoding/json"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/predict"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func smallCluster(eng *sim.Engine, nodes, cores int) *cluster.Cluster {
	return cluster.New(eng, "t", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: cores, MemBytes: 1e12},
		Count: nodes,
	})
}

func chainWorkflow() *dag.Workflow {
	w := dag.New("chain")
	w.Add(&dag.Task{ID: "a", Name: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", Name: "b", NominalDur: 20, Deps: []dag.TaskID{"a"}})
	return w
}

// runWorkflow drives the registered workflow id through c on a new
// StreamRunner over c's manager (see Bind; no recovery policy, so a failed
// task is resubmitted at once up to maxRetries times). It runs the engine
// and returns the makespan.
func runWorkflow(c *CWS, id string, maxRetries int) (sim.Time, error) {
	x, err := dag.NewWorkflowExpander(c.workflows[id].wf)
	if err != nil {
		return 0, err
	}
	sr := &rm.StreamRunner{Manager: c.mgr, Source: x}
	if err := c.Bind(sr, id, maxRetries, 0); err != nil {
		return 0, err
	}
	ms := sr.Run()
	return ms, sr.Err()
}

func TestRegisterWorkflowErrors(t *testing.T) {
	eng := sim.NewEngine()
	cws := New(rm.NewTaskManager(smallCluster(eng, 1, 4), nil), Baseline{}, nil)
	w := chainWorkflow()
	if err := cws.RegisterWorkflow("w", w); err != nil {
		t.Fatal(err)
	}
	if err := cws.RegisterWorkflow("w", w); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	bad := dag.New("bad")
	bad.Add(&dag.Task{ID: "x", Deps: []dag.TaskID{"ghost"}})
	if err := cws.RegisterWorkflow("bad", bad); err == nil {
		t.Fatal("invalid workflow accepted")
	}
}

func TestRunWorkflowMakespanAndProvenance(t *testing.T) {
	eng := sim.NewEngine()
	cws := New(rm.NewTaskManager(smallCluster(eng, 2, 4), nil), Baseline{}, nil)
	w := chainWorkflow()
	if err := cws.RegisterWorkflow("w", w); err != nil {
		t.Fatal(err)
	}
	ms, err := runWorkflow(cws, "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ms != 30 {
		t.Fatalf("makespan = %v, want 30", ms)
	}
	if cws.Provenance().Len() != 2 {
		t.Fatalf("provenance records = %d, want 2", cws.Provenance().Len())
	}
	recs := records(cws, "w")
	if recs[0].Name != "a" || recs[0].Failed {
		t.Fatalf("first record: %+v", recs[0])
	}
}

func TestRunWorkflowRetriesNodeFailure(t *testing.T) {
	eng := sim.NewEngine()
	cl := smallCluster(eng, 2, 4)
	cws := New(rm.NewTaskManager(cl, nil), Baseline{}, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "long", Name: "long", NominalDur: 100})
	cws.RegisterWorkflow("w", w)
	eng.At(10, func() {
		// Fail node 0 (first fit placed the task there).
		cl.FailNode(cl.Nodes()[0])
	})
	ms, err := runWorkflow(cws, "w", 2)
	if err != nil {
		t.Fatal(err)
	}
	if ms != 110 { // failed at 10, reran 100s on node 1
		t.Fatalf("makespan = %v, want 110", ms)
	}
	// Provenance has the failed attempt and the successful one.
	recs := records(cws, "w")
	if len(recs) != 2 || !recs[0].Failed || recs[1].Failed {
		t.Fatalf("attempts: %+v", recs)
	}
	// Node trace captured the failure (§3.3).
	if traces := provExport(t, cws).NodeTraces; len(traces) != 1 || traces[0].Kind != "down" {
		t.Fatalf("node traces: %+v", traces)
	}
}

// records returns the provenance records of workflow wfID in insertion
// order.
func records(c *CWS, wfID string) []provenance.TaskRecord {
	var out []provenance.TaskRecord
	for _, r := range c.Provenance().All() {
		if r.WorkflowID == wfID {
			out = append(out, r)
		}
	}
	return out
}

// provExport decodes the parts of the CWS's PROV export the tests read.
func provExport(t *testing.T, cws *CWS) (doc struct {
	NodeTraces []struct{ Kind string }    `json:"nodeTraces"`
	Workflows  map[string]json.RawMessage `json:"workflows"`
}) {
	t.Helper()
	raw, err := cws.Provenance().ExportPROV()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestRunWorkflowRetriesExhausted(t *testing.T) {
	eng := sim.NewEngine()
	cl := smallCluster(eng, 1, 4)
	cws := New(rm.NewTaskManager(cl, nil), Baseline{}, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "t", Name: "t", NominalDur: 100})
	cws.RegisterWorkflow("w", w)
	eng.At(10, func() { cl.FailNode(cl.Nodes()[0]) })
	if _, err := runWorkflow(cws, "w", 0); err == nil {
		t.Fatal("expected failure with no retries and dead cluster")
	}
}

func TestPredictorTrainsFromExecutions(t *testing.T) {
	eng := sim.NewEngine()
	p := predict.NewMean()
	cws := New(rm.NewTaskManager(smallCluster(eng, 2, 4), nil), Baseline{}, p)
	w := chainWorkflow()
	cws.RegisterWorkflow("w", w)
	if _, err := runWorkflow(cws, "w", 0); err != nil {
		t.Fatal(err)
	}
	got, ok := p.Predict("a", 0, 1)
	if !ok || got != 10 {
		t.Fatalf("trained prediction for a = %v ok=%v, want 10", got, ok)
	}
}

func TestFileSizePriorities(t *testing.T) {
	desc := FileSize{}
	asc := FileSize{Ascending: true}
	s := &rm.Submission{InputBytes: 100}
	if desc.Priority(s, nil) != 100 {
		t.Fatal("descending should rank big inputs first")
	}
	if asc.Priority(s, nil) != -100 {
		t.Fatal("ascending should rank big inputs last")
	}
	if desc.Name() == asc.Name() {
		t.Fatal("names should differ")
	}
}

func TestHEFTPicksFastestNode(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "h",
		cluster.Spec{Type: cluster.NodeType{Name: "slow", Cores: 4, SpeedFactor: 1, MemBytes: 1e12}, Count: 1},
		cluster.Spec{Type: cluster.NodeType{Name: "fast", Cores: 4, SpeedFactor: 2, MemBytes: 1e12}, Count: 1},
	)
	cws := New(rm.NewTaskManager(cl, nil), HEFT{}, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "t", Name: "t", NominalDur: 100, IOFrac: 0})
	cws.RegisterWorkflow("w", w)
	ms, err := runWorkflow(cws, "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ms != 50 { // must land on the 2x node
		t.Fatalf("makespan = %v, want 50 (fast node)", ms)
	}
	if recs := records(cws, "w"); recs[0].MachineType != "fast" {
		t.Fatalf("placed on %s, want fast", recs[0].MachineType)
	}
}

func TestTaremaColdFallsBackAndWarmSteers(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "h",
		cluster.Spec{Type: cluster.NodeType{Name: "slow", Cores: 8, SpeedFactor: 1, MemBytes: 1e12}, Count: 1},
		cluster.Spec{Type: cluster.NodeType{Name: "fast", Cores: 8, SpeedFactor: 3, MemBytes: 1e12}, Count: 1},
	)
	cws := New(rm.NewTaskManager(cl, nil), Tarema{Groups: 2}, nil)

	// Warm-up workflow: observe a short family and a long family.
	warm := dag.New("warm")
	warm.Add(&dag.Task{ID: "s1", Name: "short", NominalDur: 5})
	warm.Add(&dag.Task{ID: "l1", Name: "long", NominalDur: 500})
	cws.RegisterWorkflow("warm", warm)
	if _, err := runWorkflow(cws, "warm", 0); err != nil {
		t.Fatal(err)
	}

	// Now a long task should be steered to the fast node group.
	w2 := dag.New("w2")
	w2.Add(&dag.Task{ID: "l2", Name: "long", NominalDur: 500})
	cws.RegisterWorkflow("w2", w2)
	if _, err := runWorkflow(cws, "w2", 0); err != nil {
		t.Fatal(err)
	}
	recs := records(cws, "w2")
	if recs[0].MachineType != "fast" {
		t.Fatalf("warm Tarema placed long task on %s, want fast", recs[0].MachineType)
	}
}

func TestAirflowBigWorkerWaste(t *testing.T) {
	rng := randx.New(3)
	wf := func() *dag.Workflow {
		return dag.ForkJoin(randx.New(9), 2, 6, dag.GenOpts{MeanDur: 60, Cores: 1, MeanMem: 1e9})
	}
	_ = rng

	engA := sim.NewEngine()
	clA := smallCluster(engA, 4, 4)
	big, err := RunAirflowBigWorker(clA, wf())
	if err != nil {
		t.Fatal(err)
	}
	// CWSI pods request exactly the task shapes for the task durations.
	clB := smallCluster(sim.NewEngine(), 4, 4)
	cws := New(rm.NewTaskManager(clB, nil), Rank{}, nil)
	w := wf()
	if err := cws.RegisterWorkflow("w", w); err != nil {
		t.Fatal(err)
	}
	if _, err := runWorkflow(cws, "w", 0); err != nil {
		t.Fatal(err)
	}
	used := 0.0
	for _, task := range w.Tasks() {
		used += task.CPUSeconds()
	}
	pods := RunResult{RequestedCoreSec: used, UsedCoreSec: used}
	if big.Waste() <= pods.Waste() {
		t.Fatalf("big-worker waste (%v) should exceed pod waste (%v)", big.Waste(), pods.Waste())
	}
	if big.Waste() <= 0.3 {
		t.Fatalf("fork-join big-worker waste = %v, expected substantial idle reservation", big.Waste())
	}
	if pods.Waste() != 0 {
		t.Fatalf("pod-style waste = %v, want 0 (requests match usage)", pods.Waste())
	}
}

func TestRunResultWaste(t *testing.T) {
	r := RunResult{RequestedCoreSec: 100, UsedCoreSec: 60}
	if r.Waste() != 0.4 {
		t.Fatalf("Waste = %v", r.Waste())
	}
	if (RunResult{}).Waste() != 0 {
		t.Fatal("zero-request waste should be 0")
	}
}

func TestTaskParamsRecordedInProvenance(t *testing.T) {
	// §3.1: "task-specific parameters vary for each task invocation and are
	// passed on" — the CWS keeps each attempt's parameters for provenance.
	eng := sim.NewEngine()
	cws := New(rm.NewTaskManager(smallCluster(eng, 1, 4), nil), Baseline{}, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "t", Name: "tool", NominalDur: 10,
		Params: map[string]string{"--threads": "4", "--input": "a.vcf"}})
	if err := cws.RegisterWorkflow("w", w); err != nil {
		t.Fatal(err)
	}
	if _, err := runWorkflow(cws, "w", 0); err != nil {
		t.Fatal(err)
	}
	recs := records(cws, "w")
	if len(recs) != 1 || recs[0].Params["--threads"] != "4" || recs[0].Params["--input"] != "a.vcf" {
		t.Fatalf("params not recorded: %+v", recs)
	}
}

// Bind renders a recovery policy's provenance label once and reuses it while
// the policy stays the same, across Reset too; a different policy, or none,
// gets its own label.
func TestBindLabelsEachPolicy(t *testing.T) {
	eng := sim.NewEngine()
	cws := New(rm.NewTaskManager(smallCluster(eng, 1, 4), nil), Baseline{}, nil)
	p1 := fault.RetryPolicy{MaxAttempts: 2, BaseDelaySec: 5}
	p2 := fault.RetryPolicy{MaxAttempts: 3, BaseDelaySec: 5}
	bind := func(id string, p *fault.RetryPolicy) string {
		t.Helper()
		w := dag.New(id)
		w.Add(&dag.Task{ID: "t", Name: "t", NominalDur: 1})
		if err := cws.RegisterWorkflow(id, w); err != nil {
			t.Fatal(err)
		}
		if err := cws.Bind(&rm.StreamRunner{Manager: cws.mgr, Retry: p}, id, 0, 0); err != nil {
			t.Fatal(err)
		}
		return cws.workflows[id].retryLabel
	}
	if got := bind("a", &p1); got != p1.String() {
		t.Fatalf("label %q, want %q", got, p1.String())
	}
	if got := bind("b", &p2); got != p2.String() {
		t.Fatalf("label %q, want %q", got, p2.String())
	}
	if got := bind("c", nil); got != "" {
		t.Fatalf("label without a policy %q, want empty", got)
	}
	cws.Reset(Baseline{}, nil)
	if got := bind("a", &p2); got != p2.String() {
		t.Fatalf("label after Reset %q, want %q", got, p2.String())
	}
	if got := bind("b", &p1); got != p1.String() {
		t.Fatalf("label %q, want %q", got, p1.String())
	}
}
