package exaam

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/entk"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func TestSparseGridKnownSizes(t *testing.T) {
	// Classic Smolyak/Clenshaw-Curtis counts.
	cases := []struct {
		dim, level, want int
	}{
		{1, 0, 1},
		{1, 1, 3},
		{1, 2, 5},
		{2, 0, 1},
		{2, 1, 5},
		{2, 2, 13},
		{3, 1, 7},
	}
	for _, c := range cases {
		got := len(SparseGrid(c.dim, c.level))
		if got != c.want {
			t.Errorf("SparseGrid(%d,%d) = %d points, want %d", c.dim, c.level, got, c.want)
		}
	}
}

func TestSparseGridDegenerate(t *testing.T) {
	if SparseGrid(0, 2) != nil {
		t.Fatal("dim 0 should be nil")
	}
	if SparseGrid(2, -1) != nil {
		t.Fatal("negative level should be nil")
	}
}

func TestSparseGridPointsInRangeAndUnique(t *testing.T) {
	pts := SparseGrid(3, 3)
	seen := map[string]bool{}
	for _, p := range pts {
		if len(p) != 3 {
			t.Fatalf("point dim = %d", len(p))
		}
		for _, v := range p {
			if v < -1 || v > 1 {
				t.Fatalf("point out of range: %v", p)
			}
		}
		k := string(appendPointKey(nil, p))
		if seen[k] {
			t.Fatalf("duplicate point %v", p)
		}
		seen[k] = true
	}
}

func TestSparseGridDeterministic(t *testing.T) {
	a := SparseGrid(2, 3)
	b := SparseGrid(2, 3)
	if len(a) != len(b) {
		t.Fatal("nondeterministic size")
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("nondeterministic ordering")
			}
		}
	}
}

func TestFrontierConfigCounts(t *testing.T) {
	cfg := FrontierConfig()
	if got := cfg.Microstructures(); got != 125 {
		t.Fatalf("Microstructures = %d, want 125", got)
	}
	if got := cfg.PropertyTasks(); got != 7875 {
		t.Fatalf("PropertyTasks = %d, want 7875 (the paper's ExaConstit count)", got)
	}
}

func TestStagePipelineShapes(t *testing.T) {
	cfg := Config{GridDim: 2, GridLevel: 1, MeltPoolCases: 3, MicroParams: 2,
		LoadingDirections: 2, Temperatures: 2, RVEs: 1, Seed: 7}

	s0 := Stage0Pipeline(cfg)
	if len(s0.Stages) != 2 {
		t.Fatalf("stage0 stages = %d", len(s0.Stages))
	}
	if got := len(s0.Stages[1].Tasks); got != 3 {
		t.Fatalf("prep tasks = %d, want 3", got)
	}

	af, ca := Stage1AFPipeline(cfg), Stage1CAPipeline(cfg)
	if len(af.Stages) != 4 { // pre, even, odd, gather
		t.Fatalf("stage1 AdditiveFOAM stages = %d, want 4", len(af.Stages))
	}
	if len(ca.Stages) != 2 { // exaca, analysis
		t.Fatalf("stage1 ExaCA stages = %d, want 2", len(ca.Stages))
	}
	if got := len(af.Stages[1].Tasks); got != 3 {
		t.Fatalf("even runs = %d, want 3", got)
	}
	if got := len(ca.Stages[0].Tasks); got != 6 { // 3 cases × 2 micro
		t.Fatalf("exaca tasks = %d, want 6", got)
	}
	for _, task := range af.Stages[1].Tasks {
		if task.Nodes != 4 {
			t.Fatalf("AdditiveFOAM task nodes = %d, want 4", task.Nodes)
		}
	}

	s3 := Stage3Pipeline(cfg)
	if len(s3.Stages) != 1 {
		t.Fatalf("stage3 stages = %d, want 1 (optimize is a separate app)", len(s3.Stages))
	}
	if got := len(s3.Stages[0].Tasks); got != cfg.PropertyTasks() {
		t.Fatalf("exaconstit tasks = %d, want %d", got, cfg.PropertyTasks())
	}
	for _, task := range s3.Stages[0].Tasks {
		if task.Nodes != 8 {
			t.Fatalf("ExaConstit task nodes = %d, want 8", task.Nodes)
		}
		if task.DurationSec < 600 || task.DurationSec > 1500 {
			t.Fatalf("ExaConstit duration %v outside 10–25 min", task.DurationSec)
		}
	}
}

func TestRunFullSmallScale(t *testing.T) {
	eng := sim.NewEngine()
	// ≥125 nodes keeps stage 1 in the 6 h walltime bin ExaCA needs.
	cl := cluster.Frontier(eng, 128)
	bm := rm.NewBatchManager(cl, nil)
	cfg := Config{GridDim: 2, GridLevel: 1, MeltPoolCases: 4, MicroParams: 2,
		LoadingDirections: 2, Temperatures: 1, RVEs: 1, Seed: 3}
	res, err := RunFull(cl, bm, cfg, 128)
	if err != nil {
		t.Fatal(err)
	}
	wantTasks := 1 + 4 + // stage0: grid + prep
		1 + 4 + 4 + 1 + 8 + 1 + // stage1
		cfg.PropertyTasks() + 1 // stage3
	if got := res.TotalExecuted(); got != wantTasks {
		t.Fatalf("TotalExecuted = %d, want %d", got, wantTasks)
	}
	if res.Stage3.TasksFailed != 0 {
		t.Fatalf("stage3 failures = %d", res.Stage3.TasksFailed)
	}
	if res.Stage1CA.TTX <= 0 || res.Stage3.TTX <= 0 {
		t.Fatal("stage TTX not recorded")
	}
}

func TestFailureInjection(t *testing.T) {
	cfg := Config{GridDim: 2, GridLevel: 1, MeltPoolCases: 2, MicroParams: 2,
		LoadingDirections: 2, Temperatures: 2, RVEs: 2, Seed: 5,
		TransientFailures: 3, PersistentFailures: 2}
	p := Stage3Pipeline(cfg)
	transient, persistent := 0, 0
	for _, task := range p.Stages[0].Tasks {
		switch task.FailAttempts {
		case 1:
			transient++
		case 1 << 30:
			persistent++
		case 0:
		default:
			t.Fatalf("unexpected FailAttempts %d", task.FailAttempts)
		}
	}
	if transient != 3 || persistent != 2 {
		t.Fatalf("injected transient=%d persistent=%d, want 3/2", transient, persistent)
	}
}

func TestFaultTolerantRunMatchesPaperCounts(t *testing.T) {
	// Scaled-down §4.3 reproduction: transient failures recover via
	// resubmission, persistent ones stay failed.
	eng := sim.NewEngine()
	cl := cluster.Frontier(eng, 32)
	bm := rm.NewBatchManager(cl, nil)
	cfg := Config{GridDim: 2, GridLevel: 1, MeltPoolCases: 2, MicroParams: 2,
		LoadingDirections: 3, Temperatures: 2, RVEs: 2, Seed: 5,
		TransientFailures: 4, PersistentFailures: 1}
	am := entk.NewAppManager(cl, bm, entk.FrontierResource(32, 12*3600))
	rep, err := am.Run(Stage3Pipeline(cfg))
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.PropertyTasks() - 1 // all but the persistent failure
	if rep.TasksExecuted != want {
		t.Fatalf("executed = %d, want %d", rep.TasksExecuted, want)
	}
	if rep.ResubmittedOK != 4 {
		t.Fatalf("ResubmittedOK = %d, want 4", rep.ResubmittedOK)
	}
	if rep.TasksFailed != 1 {
		t.Fatalf("terminal failures = %d, want 1", rep.TasksFailed)
	}
	if rep.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", rep.Rounds)
	}
}

func TestAdaptiveStage3Refines(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.Frontier(eng, 64)
	bm := rm.NewBatchManager(cl, nil)
	cfg := Config{GridDim: 2, GridLevel: 1, MeltPoolCases: 2, MicroParams: 1,
		LoadingDirections: 2, Temperatures: 1, RVEs: 1, Seed: 9}

	// Converge after 3 rounds.
	p := AdaptiveStage3Pipeline(cfg, 5, func(round int) bool { return round >= 3 })
	am := entk.NewAppManager(cl, bm, entk.FrontierResource(64, 12*3600))
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	perRound := cfg.Microstructures() * cfg.LoadingDirections * cfg.Temperatures
	if rep.TasksExecuted != 3*perRound {
		t.Fatalf("executed = %d, want %d (3 adaptive rounds)", rep.TasksExecuted, 3*perRound)
	}
	if len(p.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(p.Stages))
	}
}

func TestAdaptiveStage3RespectsMaxRounds(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.Frontier(eng, 64)
	bm := rm.NewBatchManager(cl, nil)
	cfg := Config{GridDim: 2, GridLevel: 1, MeltPoolCases: 2, MicroParams: 1,
		LoadingDirections: 1, Temperatures: 1, RVEs: 1, Seed: 9}
	p := AdaptiveStage3Pipeline(cfg, 2, func(int) bool { return false }) // never converges
	am := entk.NewAppManager(cl, bm, entk.FrontierResource(64, 12*3600))
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) != 2 {
		t.Fatalf("stages = %d, maxRounds not respected", len(p.Stages))
	}
	if rep.TasksExecuted != 2*cfg.Microstructures() {
		t.Fatalf("executed = %d", rep.TasksExecuted)
	}
}

func TestStageResourcesShape(t *testing.T) {
	if r := StageResources(1, 8000); r.Nodes != 125 {
		t.Fatalf("stage1 nodes = %d, want 125", r.Nodes)
	}
	if r := StageResources(3, 8000); r.Nodes != 8000 || r.Walltime != 12*3600 {
		t.Fatalf("stage3 resources = %+v", r)
	}
	if r := StageResources(0, 8000); r.Nodes != 8 {
		t.Fatalf("stage0 nodes = %d, want 8", r.Nodes)
	}
}
