package sweep

import (
	"errors"
	"strings"
	"testing"

	"hhcw/internal/core"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
)

func montageSpec(size int) WorkflowSpec {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	return WorkflowSpec{
		Name: "montage",
		Gen:  func(r *randx.Source) *dag.Workflow { return dag.MontageLike(r, size, opts) },
	}
}

func k8sSpec(name string) EnvSpec {
	return EnvSpec{Name: name, New: func() core.Environment {
		return &core.KubernetesEnv{Nodes: 2, CoresPerNode: 8}
	}}
}

func TestRunBasic(t *testing.T) {
	rep, err := Run(Config{
		Workflows: []WorkflowSpec{montageSpec(8)},
		Envs:      []EnvSpec{k8sSpec("k8s")},
		Seeds:     Seeds(1, 10),
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 10 {
		t.Fatalf("runs = %d, want 10", len(rep.Runs))
	}
	for i, r := range rep.Runs {
		if r.Seed != int64(1+i) {
			t.Fatalf("run %d has seed %d: results not in job order", i, r.Seed)
		}
		if r.Result.MakespanSec <= 0 {
			t.Fatalf("seed %d: non-positive makespan", r.Seed)
		}
		if r.Result.Provenance != nil {
			t.Fatalf("seed %d: provenance leaked into sweep result", r.Seed)
		}
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(rep.Cells))
	}
	c := rep.Cells[0]
	if c.Makespan.N != 10 || c.Makespan.Dropped != 0 {
		t.Fatalf("cell summary N=%d dropped=%d", c.Makespan.N, c.Makespan.Dropped)
	}
	if c.Makespan.Min > c.Makespan.Median || c.Makespan.Median > c.Makespan.P90 || c.Makespan.P90 > c.Makespan.Max {
		t.Fatalf("order statistics not ordered: %+v", c.Makespan)
	}
	if c.UtilMean <= 0 || c.UtilMean > 1 {
		t.Fatalf("util mean = %v", c.UtilMean)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(Config{
		Workflows: []WorkflowSpec{{Name: "nogen"}},
		Envs:      []EnvSpec{k8sSpec("k8s")},
		Seeds:     Seeds(1, 1),
	}); err == nil || !strings.Contains(err.Error(), "nogen") {
		t.Fatalf("nil generator not rejected: %v", err)
	}
	if _, err := Run(Config{
		Workflows: []WorkflowSpec{montageSpec(4)},
		Envs:      []EnvSpec{{Name: "nofactory"}},
		Seeds:     Seeds(1, 1),
	}); err == nil || !strings.Contains(err.Error(), "nofactory") {
		t.Fatalf("nil factory not rejected: %v", err)
	}
}

type failingEnv struct{ err error }

func (e *failingEnv) Name() string                            { return "failing" }
func (e *failingEnv) Run(*dag.Workflow) (*core.Result, error) { return nil, e.err }

// A failing run aborts the sweep and reports the lowest-index failure, so
// error behaviour is as deterministic as success behaviour.
func TestRunErrorDeterministic(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Run(Config{
			Workflows: []WorkflowSpec{montageSpec(4)},
			Envs: []EnvSpec{
				{Name: "bad", New: func() core.Environment { return &failingEnv{err: boom} }},
				k8sSpec("ok"),
			},
			Seeds:   Seeds(5, 8),
			Workers: workers,
		})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		// Lowest job index = first env, first seed.
		if !strings.Contains(err.Error(), "seed 5") || !strings.Contains(err.Error(), "bad") {
			t.Fatalf("workers=%d: error not attributed to lowest job index: %v", workers, err)
		}
	}
}

type panickyEnv struct{}

func (panickyEnv) Name() string                            { return "panicky" }
func (panickyEnv) Run(*dag.Workflow) (*core.Result, error) { panic("stalled") }

// A panicking substrate must abort the sweep with an error, not crash the
// process.
func TestRunRecoversWorkerPanic(t *testing.T) {
	_, err := Run(Config{
		Workflows: []WorkflowSpec{montageSpec(4)},
		Envs:      []EnvSpec{{Name: "panicky", New: func() core.Environment { return panickyEnv{} }}},
		Seeds:     Seeds(1, 4),
		Workers:   2,
	})
	if err == nil || !strings.Contains(err.Error(), "panic: stalled") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
}

func TestProgressCallback(t *testing.T) {
	var calls []int
	_, err := Run(Config{
		Workflows: []WorkflowSpec{montageSpec(4)},
		Envs:      []EnvSpec{k8sSpec("k8s")},
		Seeds:     Seeds(1, 6),
		Workers:   3,
		Progress: func(done, total int) {
			if total != 6 {
				t.Errorf("total = %d, want 6", total)
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 6 {
		t.Fatalf("progress called %d times, want 6", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done values not monotone: %v", calls)
		}
	}
}

func TestSpeedupAgainstBaseline(t *testing.T) {
	slow := EnvSpec{Name: "slow", New: func() core.Environment {
		return &core.KubernetesEnv{Nodes: 1, CoresPerNode: 8}
	}}
	fast := EnvSpec{Name: "fast", New: func() core.Environment {
		return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8}
	}}
	rep, err := Run(Config{
		Workflows: []WorkflowSpec{montageSpec(8)},
		Envs:      []EnvSpec{slow, fast},
		Seeds:     Seeds(1, 5),
		Workers:   2,
		Baseline:  "slow",
	})
	if err != nil {
		t.Fatal(err)
	}
	base := rep.Cell("montage", "slow")
	if base == nil || base.SpeedupMean != 0 {
		t.Fatalf("baseline cell should have zero speedup: %+v", base)
	}
	c := rep.Cell("montage", "fast")
	if c == nil {
		t.Fatal("fast cell missing")
	}
	if c.SpeedupMean <= 1 {
		t.Fatalf("4x8 cluster not faster than 1x8: speedup %v", c.SpeedupMean)
	}
	if c.CutMeanPct <= 0 || c.CutMaxPct < c.CutMeanPct {
		t.Fatalf("cut stats inconsistent: mean %v max %v", c.CutMeanPct, c.CutMaxPct)
	}
}

func TestTableAndHelpers(t *testing.T) {
	rep, err := Run(Config{
		Workflows: []WorkflowSpec{montageSpec(4)},
		Envs:      []EnvSpec{k8sSpec("b-env"), k8sSpec("a-env")},
		Seeds:     Seeds(1, 3),
		Workers:   2,
		Baseline:  "b-env",
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.Table()
	for _, want := range []string{"workflow", "montage", "a-env", "b-env", "median"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
	if rep.Cell("montage", "nope") != nil {
		t.Fatal("Cell returned a match for unknown env")
	}
	if fp := rep.Fingerprint(); !strings.Contains(fp, "montage|a-env|2|") {
		t.Fatalf("fingerprint missing per-run lines:\n%s", fp)
	}
}

// Workers beyond the job count must not deadlock or change results.
func TestMoreWorkersThanJobs(t *testing.T) {
	cfg := Config{
		Workflows: []WorkflowSpec{montageSpec(4)},
		Envs:      []EnvSpec{k8sSpec("k8s")},
		Seeds:     Seeds(9, 2),
	}
	cfg.Workers = 1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 16
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("worker count changed results")
	}
}
