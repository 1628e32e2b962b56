package sweep

import (
	"errors"
	"fmt"
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

// An env whose configuration is invalid fails each of its runs with the
// configuration error, attributed like any other run failure.
func TestRunReportsEnvConfigErrors(t *testing.T) {
	for _, c := range []struct {
		env  EnvSpec
		want string
	}{
		{EnvSpec{Name: "hpc", New: func() core.Environment { return &core.HPCEnv{} }},
			"sweep: montage on hpc seed 3: core: hpc env needs nodes"},
		{EnvSpec{Name: "cloud", New: func() core.Environment { return &core.CloudEnv{} }},
			"sweep: montage on cloud seed 3: core: cloud env needs instances"},
		{EnvSpec{Name: "k8s", New: func() core.Environment { return &core.KubernetesEnv{CoresPerNode: 8} }},
			"sweep: montage on k8s seed 3: core: kubernetes env needs nodes and cores"},
	} {
		for _, workers := range []int{1, 2} {
			_, err := Run(Config{
				Workflows: []WorkflowSpec{montageSpec(4)},
				Envs:      []EnvSpec{c.env},
				Seeds:     Seeds(3, 4),
				Workers:   workers,
			})
			if err == nil || err.Error() != c.want {
				t.Errorf("%s workers=%d: err = %v, want %q", c.env.Name, workers, err, c.want)
			}
		}
	}
}

// funcEnv is a test environment whose sessions run each workflow through
// the function itself; it is its own session.
type funcEnv func(*dag.Workflow) (*core.Result, error)

func (f funcEnv) NewSession() (core.RunSession, error) { return f, nil }
func (f funcEnv) Name() string                         { return "func" }
func (f funcEnv) Audit() []string                      { return nil }
func (f funcEnv) RunSeeded(w *dag.Workflow, _ *randx.Source) (*core.Result, error) {
	return f(w)
}

// seedEnv fails with err on the workflow generated for one seed and
// succeeds on the others without running them.
func seedEnv(failOn string, err error) funcEnv {
	return func(w *dag.Workflow) (*core.Result, error) {
		if w.Name == failOn {
			return nil, err
		}
		return &core.Result{}, nil
	}
}

// A failing run aborts the sweep and reports the lowest (workflow, env,
// seed) index's failure, so error behaviour is as deterministic as success
// behaviour. That is not the first failing (workflow, seed) group's: when
// env 1 fails at seed 5 and env 0 only at seed 9, env 0's failure wins.
func TestRunErrorDeterministic(t *testing.T) {
	boom := errors.New("boom")
	seeds := Seeds(5, 5)
	// Name each workflow after its seed, recovered from the first draw.
	seedOf := map[int64]int64{}
	for _, s := range seeds {
		seedOf[randx.New(s).Int63()] = s
	}
	tagged := WorkflowSpec{Name: "tagged", Gen: func(r *randx.Source) *dag.Workflow {
		return dag.New(fmt.Sprintf("seed-%d", seedOf[r.Int63()]))
	}}
	failOn := func(name, tag string) EnvSpec {
		return EnvSpec{Name: name, New: func() core.Environment { return seedEnv(tag, boom) }}
	}
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{
			Workflows: []WorkflowSpec{montageSpec(4)},
			Envs: []EnvSpec{
				{Name: "bad", New: func() core.Environment {
					return funcEnv(func(*dag.Workflow) (*core.Result, error) { return nil, boom })
				}},
				k8sSpec("ok"),
			},
			Seeds: Seeds(5, 8),
		}, "on bad seed 5:"},
		{Config{
			Workflows: []WorkflowSpec{tagged},
			Envs:      []EnvSpec{failOn("env0", "seed-9"), failOn("env1", "seed-5")},
			Seeds:     seeds,
		}, "on env0 seed 9:"},
	} {
		for _, workers := range []int{1, 4} {
			c.cfg.Workers = workers
			_, err := Run(c.cfg)
			if err == nil || !errors.Is(err, boom) {
				t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("workers=%d: error not attributed to the lowest index (%q): %v", workers, c.want, err)
			}
		}
	}
}

// A panicking substrate, generator or session construction must abort the
// sweep with an error, not crash the process.
func TestRunRecoversWorkerPanic(t *testing.T) {
	_, err := Run(Config{
		Workflows: []WorkflowSpec{montageSpec(4)},
		Envs: []EnvSpec{{Name: "panicky", New: func() core.Environment {
			return funcEnv(func(*dag.Workflow) (*core.Result, error) { panic("stalled") })
		}}},
		Seeds:   Seeds(1, 4),
		Workers: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "panic: stalled") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	_, err = Run(Config{
		Workflows: []WorkflowSpec{{Name: "gen-panics", Gen: func(*randx.Source) *dag.Workflow { panic("no workflow") }}},
		Envs:      []EnvSpec{k8sSpec("k8s")},
		Seeds:     Seeds(1, 4),
		Workers:   2,
	})
	if err == nil || !strings.Contains(err.Error(), "gen-panics on k8s seed 1: panic: no workflow") {
		t.Fatalf("err = %v, want recovered generator panic at seed 1", err)
	}
	_, err = Run(Config{
		Workflows: []WorkflowSpec{montageSpec(4)},
		Envs: []EnvSpec{{Name: "no-session", New: func() core.Environment { return nil },
			NewSession: func() (core.RunSession, error) { panic("no substrate") }}},
		Seeds:   Seeds(1, 4),
		Workers: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "montage on no-session seed 1: panic: no substrate") {
		t.Fatalf("err = %v, want recovered session-construction panic at seed 1", err)
	}
}

// Progress fires once per simulation, not once per (workflow, seed) group.
func TestProgressCallback(t *testing.T) {
	var calls []int
	_, err := Run(Config{
		Workflows: []WorkflowSpec{montageSpec(4)},
		Envs:      []EnvSpec{k8sSpec("k8s"), k8sSpec("k8s-2")},
		Seeds:     Seeds(1, 6),
		Workers:   3,
		Progress: func(done, total int) {
			if total != 12 {
				t.Errorf("total = %d, want 12", total)
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 12 {
		t.Fatalf("progress called %d times, want 12", len(calls))
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
	// One workflow: a cell per env, in config order.
	base, c := rep.Cells[0], rep.Cells[1]
	if base.Env != "slow" || c.Env != "fast" {
		t.Fatalf("cells %s, %s; want slow, fast", base.Env, c.Env)
	}
	if base.SpeedupMean != 0 {
		t.Fatalf("baseline cell should have zero speedup: %+v", base)
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
