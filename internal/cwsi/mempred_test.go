package cwsi

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/predict"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// memWorkflowIDs builds n independent tasks that over-request memory 4×:
// request 16 GB, true peak 4 GB.
func memWorkflowIDs(n int) *dag.Workflow {
	w := dag.New("mem")
	for i := 0; i < n; i++ {
		w.Add(&dag.Task{
			ID: dag.TaskID("t" + string(rune('0'+i/10)) + string(rune('0'+i%10))), Name: "hungry",
			NominalDur: 100, MemBytes: 16e9, PeakMemBytes: 4e9,
		})
	}
	return w
}

// memCluster has plenty of cores but memory fits only 2 full requests per
// node (32 GB).
func memCluster() *cluster.Cluster {
	return cluster.New(sim.NewEngine(), "mem", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 64, MemBytes: 32e9},
		Count: 1,
	})
}

func TestMemPredictionPacksMoreTasks(t *testing.T) {
	// Without prediction: 2 concurrent (16 GB requests on 32 GB node) →
	// 16 tasks take 8 waves of 100 s.
	cl1 := memCluster()
	cws1 := New(rm.NewTaskManager(cl1, nil), Baseline{}, nil)
	if err := cws1.RegisterWorkflow("w", memWorkflowIDs(16)); err != nil {
		t.Fatal(err)
	}
	msNo, err := runWorkflow(cws1, "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if msNo != 800 {
		t.Fatalf("unpredicted makespan = %v, want 800", msNo)
	}

	// With a warmed memory predictor (4 GB peak + 20 % = 4.8 GB): 6
	// concurrent → 3 waves.
	cl2 := memCluster()
	cws2 := New(rm.NewTaskManager(cl2, nil), Baseline{}, nil)
	mp := predict.NewMem(0.2)
	mp.Observe(predict.Observation{TaskName: "hungry", PeakMem: 4e9})
	cws2.SetMemPredictor(mp)
	if err := cws2.RegisterWorkflow("w", memWorkflowIDs(16)); err != nil {
		t.Fatal(err)
	}
	msYes, err := runWorkflow(cws2, "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if msYes != 300 {
		t.Fatalf("predicted makespan = %v, want 300 (6 per wave)", msYes)
	}
	if msYes >= msNo {
		t.Fatal("memory prediction did not improve packing")
	}
}

func TestMemPredictionOOMRetriesWithFullRequest(t *testing.T) {
	// A poisoned predictor that underestimates: first attempt OOMs, the
	// retry with the declared request succeeds.
	cl := memCluster()
	cws := New(rm.NewTaskManager(cl, nil), Baseline{}, nil)
	mp := predict.NewMem(0)                                           // no margin
	mp.Observe(predict.Observation{TaskName: "hungry", PeakMem: 1e9}) // wrong: real peak is 4 GB
	cws.SetMemPredictor(mp)
	w := memWorkflowIDs(1)
	if err := cws.RegisterWorkflow("w", w); err != nil {
		t.Fatal(err)
	}
	ms, err := runWorkflow(cws, "w", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms != 200 { // 100 s OOM attempt + 100 s full-request retry
		t.Fatalf("makespan = %v, want 200", ms)
	}
	recs := records(cws, "w")
	if len(recs) != 2 || !recs[0].Failed || recs[1].Failed {
		t.Fatalf("attempts: %+v", recs)
	}
	if recs[0].Error == "" || recs[1].Error != "" {
		t.Fatalf("OOM error not recorded: %+v", recs[0])
	}
}

func TestMemPredictionColdUsesRequest(t *testing.T) {
	cl := memCluster()
	cws := New(rm.NewTaskManager(cl, nil), Baseline{}, nil)
	cws.SetMemPredictor(predict.NewMem(0.2)) // cold
	if err := cws.RegisterWorkflow("w", memWorkflowIDs(2)); err != nil {
		t.Fatal(err)
	}
	ms, err := runWorkflow(cws, "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ms != 100 { // both fit at full request; no OOM
		t.Fatalf("cold-predictor makespan = %v, want 100", ms)
	}
}

func TestMemPredictorWarmsFromCWSRuns(t *testing.T) {
	cl := memCluster()
	cws := New(rm.NewTaskManager(cl, nil), Baseline{}, nil)
	mp := predict.NewMem(0.2)
	cws.SetMemPredictor(mp)
	if err := cws.RegisterWorkflow("warm", memWorkflowIDs(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := runWorkflow(cws, "warm", 0); err != nil {
		t.Fatal(err)
	}
	// The predictor observed the true 4 GB peaks.
	pred, ok := mp.Predict("hungry")
	if !ok || pred < 4e9 || pred > 5e9 {
		t.Fatalf("learned prediction = %v ok=%v, want ~4.8 GB", pred, ok)
	}
}

func TestTaskPeakMemDefault(t *testing.T) {
	task := dag.Task{MemBytes: 10e9}
	if task.PeakMem() != 8e9 {
		t.Fatalf("default peak = %v, want 8e9", task.PeakMem())
	}
	task.PeakMemBytes = 3e9
	if task.PeakMem() != 3e9 {
		t.Fatalf("explicit peak = %v", task.PeakMem())
	}
}
