package entk

import (
	"fmt"
	"strings"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/randx"
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

func simplePipeline(stageTasks ...[]float64) *Pipeline {
	p := &Pipeline{Name: "p"}
	for i, durs := range stageTasks {
		s := p.AddStage(&Stage{Name: fmt.Sprintf("s%d", i)})
		for j, d := range durs {
			s.AddTask(&Task{ID: fmt.Sprintf("t%d-%d", i, j), Nodes: 1, DurationSec: d})
		}
	}
	return p
}

func TestStagesRunSequentially(t *testing.T) {
	_, cl, bm := setup(4)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 4, Walltime: 1e6})
	p := simplePipeline([]float64{10, 10}, []float64{20})
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 tasks run concurrently (10s), then stage 1 (20s).
	if rep.TTX != 30 {
		t.Fatalf("TTX = %v, want 30", rep.TTX)
	}
	if rep.TasksExecuted != 3 || rep.TasksFailed != 0 {
		t.Fatalf("executed=%d failed=%d", rep.TasksExecuted, rep.TasksFailed)
	}
	for _, s := range p.Stages {
		for _, task := range s.Tasks {
			if task.state != Executed {
				t.Fatalf("task %s state = %v", task.ID, task.state)
			}
		}
	}
}

func TestPipelinesRunConcurrently(t *testing.T) {
	_, cl, bm := setup(4)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 4, Walltime: 1e6})
	p1 := simplePipeline([]float64{100})
	p2 := simplePipeline([]float64{100})
	rep, err := am.Run(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TTX != 100 { // concurrent, not 200
		t.Fatalf("TTX = %v, want 100 (concurrent pipelines)", rep.TTX)
	}
}

func TestStageBarrierWaitsForSlowest(t *testing.T) {
	_, cl, bm := setup(4)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 4, Walltime: 1e6})
	p := simplePipeline([]float64{10, 90}, []float64{10})
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TTX != 100 { // max(10,90) + 10
		t.Fatalf("TTX = %v, want 100", rep.TTX)
	}
}

func TestOverheadReported(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6, BootstrapSec: 85})
	rep, err := am.Run(simplePipeline([]float64{100}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overhead != 85 {
		t.Fatalf("Overhead = %v, want 85", rep.Overhead)
	}
	if rep.JobRuntime != 185 {
		t.Fatalf("JobRuntime = %v, want 185 (OVH+TTX)", rep.JobRuntime)
	}
}

// A job whose walltime ends while the pilot bootstraps runs nothing on the
// reclaimed nodes, and the run says why.
func TestPilotExpiredDuringBootstrap(t *testing.T) {
	eng, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 10, BootstrapSec: 85})
	p := simplePipeline([]float64{100})
	_, err := am.Run(p)
	if err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("err = %v, want the expired pilot named", err)
	}
	if st := p.Stages[0].Tasks[0].state; st == Executed {
		t.Fatalf("task ran on an expired pilot (state %v)", st)
	}
	if eng.Now() != 85 {
		t.Fatalf("engine drained at %v, want 85 (the bootstrap event, nothing after)", eng.Now())
	}
}

func TestUtilizationFullMachine(t *testing.T) {
	_, cl, bm := setup(4)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 4, Walltime: 1e6})
	// 4 tasks × 1 node × 100 s on 4 nodes: full busy during TTX.
	rep, err := am.Run(simplePipeline([]float64{100, 100, 100, 100}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Utilization < 0.99 {
		t.Fatalf("Utilization = %v, want ~1", rep.Utilization)
	}
}

func TestResubmissionAfterNodeFailure(t *testing.T) {
	eng, cl, bm := setup(4)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 4, Walltime: 1e6})
	p := simplePipeline([]float64{100, 100, 100, 100})
	// Fail one node mid-run: one task dies, gets resubmitted in round 2.
	eng.At(50, func() { cl.FailNode(cl.Nodes()[0]) })
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 2 {
		t.Fatalf("Rounds = %d, want 2", rep.Rounds)
	}
	if rep.TasksExecuted != 4 {
		t.Fatalf("executed = %d, want all 4 after resubmission", rep.TasksExecuted)
	}
	if rep.ResubmittedOK != 1 {
		t.Fatalf("ResubmittedOK = %d, want 1", rep.ResubmittedOK)
	}
	if rep.TasksFailed != 0 {
		t.Fatalf("terminal failures = %d, want 0", rep.TasksFailed)
	}
}

func TestResubmissionJobIsSmaller(t *testing.T) {
	eng, cl, bm := setup(8)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 8, Walltime: 1e6})
	p := simplePipeline([]float64{100, 100, 100, 100, 100, 100, 100, 100})
	eng.At(50, func() { cl.FailNode(cl.Nodes()[0]) })
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 2 || rep.TasksExecuted != 8 {
		t.Fatalf("rounds=%d executed=%d", rep.Rounds, rep.TasksExecuted)
	}
	// The resubmission job requested 1 node (1 failed 1-node task): its
	// batch job was the second started.
	if bm.Started() != 2 {
		t.Fatalf("batch jobs = %d, want 2", bm.Started())
	}
}

func TestMaxResubmitRoundsZero(t *testing.T) {
	eng, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})
	am.MaxResubmitRounds = 0
	p := simplePipeline([]float64{100, 100})
	eng.At(50, func() { cl.FailNode(cl.Nodes()[0]) })
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 1 {
		t.Fatalf("Rounds = %d, want 1", rep.Rounds)
	}
	if rep.TasksFailed != 1 {
		t.Fatalf("TasksFailed = %d, want 1 terminal failure", rep.TasksFailed)
	}
}

func TestMeasuredRatesWithLimits(t *testing.T) {
	_, cl, bm := setup(50)
	am := NewAppManager(cl, bm, ResourceDesc{
		Nodes: 50, Walltime: 1e6, SchedRate: 10, LaunchRate: 5,
	})
	stage := &Stage{Name: "s"}
	for i := 0; i < 100; i++ {
		stage.AddTask(&Task{ID: fmt.Sprintf("t%03d", i), Nodes: 1, DurationSec: 500})
	}
	p := &Pipeline{Name: "p", Stages: []*Stage{stage}}
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeasuredSchedRate < 8 || rep.MeasuredSchedRate > 12 {
		t.Fatalf("sched rate = %v, want ~10", rep.MeasuredSchedRate)
	}
	if rep.MeasuredLaunchRate < 1 || rep.MeasuredLaunchRate > 6 {
		t.Fatalf("launch rate = %v, want <= 5", rep.MeasuredLaunchRate)
	}
	if len(rep.Running) == 0 || len(rep.Scheduled) == 0 || len(rep.BusyNodes) == 0 {
		t.Fatal("series not captured")
	}
}

func TestFrontierResource(t *testing.T) {
	r := FrontierResource(8000, 12*3600)
	if r.Nodes != 8000 || r.SchedRate != 269 || r.LaunchRate != 51 || r.BootstrapSec != 85 {
		t.Fatalf("FrontierResource = %+v", r)
	}
}

func TestEmptyStageSkipped(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})
	p := &Pipeline{Name: "p"}
	p.AddStage(&Stage{Name: "empty"})
	p.AddStage(&Stage{Name: "real", Tasks: []*Task{{ID: "t", Nodes: 1, DurationSec: 10}}})
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksExecuted != 1 {
		t.Fatalf("executed = %d", rep.TasksExecuted)
	}
}

func TestOversizedTaskFailsCleanly(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})
	am.MaxResubmitRounds = 0
	p := &Pipeline{Name: "p", Stages: []*Stage{{
		Name:  "s",
		Tasks: []*Task{{ID: "huge", Nodes: 10, DurationSec: 10}},
	}}}
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksFailed != 1 || rep.TasksExecuted != 0 {
		t.Fatalf("failed=%d executed=%d", rep.TasksFailed, rep.TasksExecuted)
	}
}

func TestManyTasksThroughput(t *testing.T) {
	_, cl, bm := setup(100)
	am := NewAppManager(cl, bm, FrontierResource(100, 12*3600))
	rng := randx.New(1)
	stage := &Stage{Name: "ensemble"}
	for i := 0; i < 500; i++ {
		stage.AddTask(&Task{
			ID:          fmt.Sprintf("sim%04d", i),
			Nodes:       2,
			DurationSec: rng.Uniform(600, 1500),
		})
	}
	p := &Pipeline{Name: "uq", Stages: []*Stage{stage}}
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksExecuted != 500 {
		t.Fatalf("executed = %d", rep.TasksExecuted)
	}
	if rep.Utilization < 0.7 {
		t.Fatalf("utilization = %v, want dense packing", rep.Utilization)
	}
}
