package driver

import (
	"os"
	"strings"
	"testing"

	"hhcw/internal/core"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/sweep"
)

// withArgs runs fn with os.Args swapped for the given command line.
func withArgs(t *testing.T, args []string, fn func()) {
	t.Helper()
	saved := os.Args
	os.Args = append([]string{"test-app"}, args...)
	defer func() { os.Args = saved }()
	fn()
}

func TestParseCommonFlags(t *testing.T) {
	withArgs(t, []string{"-seed", "42", "-faults", "mtbf", "-json"}, func() {
		app := New("t", "t [flags]")
		extra := app.Int("extra", 3, "command-specific flag")
		app.Parse()
		if app.Seed() != 42 {
			t.Fatalf("Seed() = %d, want 42", app.Seed())
		}
		if app.FaultsName() != "mtbf" || !app.Faults().Enabled() {
			t.Fatalf("faults = %q enabled=%v, want mtbf/enabled", app.FaultsName(), app.Faults().Enabled())
		}
		if !app.JSON() {
			t.Fatal("JSON() = false after -json")
		}
		if *extra != 3 {
			t.Fatalf("extra = %d, want default 3", *extra)
		}
	})
}

func TestSeedDefault(t *testing.T) {
	withArgs(t, nil, func() {
		app := New("t", "t [flags]")
		app.SeedDefault(13)
		app.Parse()
		if app.Seed() != 13 {
			t.Fatalf("Seed() = %d, want overridden default 13", app.Seed())
		}
	})
	// An explicit -seed still wins over the overridden default.
	withArgs(t, []string{"-seed", "5"}, func() {
		app := New("t", "t [flags]")
		app.SeedDefault(13)
		app.Parse()
		if app.Seed() != 5 {
			t.Fatalf("Seed() = %d, want explicit 5", app.Seed())
		}
	})
}

func TestNewReportHeader(t *testing.T) {
	withArgs(t, []string{"-seed", "9"}, func() {
		app := New("myapp", "myapp")
		app.Parse()
		rep := app.NewReport()
		if rep.App != "myapp" || rep.Seed != 9 {
			t.Fatalf("report header = %q/%d, want myapp/9", rep.App, rep.Seed)
		}
		if rep.Faults != "" {
			t.Fatalf("report faults = %q, want empty for -faults none", rep.Faults)
		}
	})
}

// A single run forks its substrate source off the generator right after
// generation, as wfsim does, and so reproduces the sweep cell of its seed.
func TestRunSeededMatchesSweepDiscipline(t *testing.T) {
	genW := func(rng *randx.Source) *dag.Workflow {
		opts := dag.GenOpts{MeanDur: 100, CVDur: 0.5, Cores: 1, MaxCores: 2, MeanMem: 1e9}
		return dag.ForkJoin(rng, 2, 4, opts)
	}
	gen := func(seed int64) (*dag.Workflow, *randx.Source) {
		rng := randx.New(seed)
		return genW(rng), rng
	}
	newEnv := func() core.Environment {
		return &core.KubernetesEnv{Nodes: 2, CoresPerNode: 4, Faults: fault.MTBF()}
	}

	w1, r1 := gen(77)
	res1, err := core.Run(newEnv(), w1, r1.Fork())
	if err != nil {
		t.Fatal(err)
	}
	w2, r2 := gen(77)
	res2, err := core.Run(newEnv(), w2, r2.Fork())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Fingerprint() != res2.Fingerprint() {
		t.Fatalf("core.Run not deterministic:\n%s\n%s", res1.Fingerprint(), res2.Fingerprint())
	}
	rep, err := sweep.Run(sweep.Config{
		Workflows: []sweep.WorkflowSpec{{Name: "forkjoin", Gen: genW}},
		Envs:      []sweep.EnvSpec{{Name: "k8s", New: newEnv}},
		Seeds:     []int64{77},
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cell := rep.Runs[0].Result.Fingerprint(); cell != res1.Fingerprint() {
		t.Fatalf("single run differs from its sweep cell:\n run  %s\n cell %s", res1.Fingerprint(), cell)
	}
}

func TestWorkflowFamilies(t *testing.T) {
	for _, name := range strings.Split(WorkflowFamilies, "|") {
		spec, err := WorkflowFamily(name, 8, 0)
		if err != nil {
			t.Fatalf("WorkflowFamily(%q): %v", name, err)
		}
		w := spec.Gen(randx.New(1))
		if w.Len() == 0 {
			t.Fatalf("WorkflowFamily(%q) produced an empty workflow", name)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("WorkflowFamily(%q) invalid: %v", name, err)
		}
	}
	if _, err := WorkflowFamily("nope", 8, 0); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestBuildEnv(t *testing.T) {
	for _, name := range strings.Split(EnvNames, "|") {
		spec, err := BuildEnv(name, 2, 8, fault.Profile{})
		if err != nil {
			t.Fatalf("BuildEnv(%q): %v", name, err)
		}
		if spec.New() == nil {
			t.Fatalf("BuildEnv(%q) built a nil environment", name)
		}
	}
	if _, err := BuildEnv("nope", 2, 8, fault.Profile{}); err == nil {
		t.Fatal("unknown env accepted")
	}
	// hpc and cloud have no fault substrate; an enabled profile must error.
	for _, name := range []string{"hpc", "cloud"} {
		if _, err := BuildEnv(name, 2, 8, fault.MTBF()); err == nil {
			t.Fatalf("BuildEnv(%q) accepted an enabled fault profile", name)
		}
	}
}
