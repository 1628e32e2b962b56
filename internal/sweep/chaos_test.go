package sweep

// Chaos determinism — the fault-injection acceptance check: the equivalent of
// `wfsim -faults mtbf -sweep 200` produces bit-identical per-seed Fingerprint
// aggregates at -workers 1, 4, and NumCPU. Fault processes draw from a source
// forked off the per-seed generator in a fixed order, so turning chaos on
// keeps the PR-1 determinism contract intact.

import (
	"reflect"
	"runtime"
	"testing"

	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
)

func chaosEnvs(prof fault.Profile) []EnvSpec {
	return []EnvSpec{
		{Name: "k8s", New: func() core.Environment {
			return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: prof}
		}},
		{Name: "k8s-cws", New: func() core.Environment {
			return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}, Faults: prof}
		}},
	}
}

func TestChaosSweep200SeedsWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed chaos sweep in -short mode")
	}
	cfg := Config{
		Workflows: []WorkflowSpec{allWorkflows()[0]}, // montage
		Envs:      chaosEnvs(fault.MTBF()),
		Seeds:     Seeds(1, 200),
	}
	workerCounts := []int{1, 4, runtime.NumCPU()}
	var reports []*Report
	for _, wkr := range workerCounts {
		cfg.Workers = wkr
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", wkr, err)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if reports[0].Fingerprint() != reports[i].Fingerprint() {
			t.Errorf("chaos fingerprints differ between workers=%d and workers=%d",
				workerCounts[0], workerCounts[i])
		}
		if !reflect.DeepEqual(reports[0].Cells, reports[i].Cells) {
			t.Errorf("chaos cells differ between workers=%d and workers=%d",
				workerCounts[0], workerCounts[i])
		}
		if reports[0].FaultTable() != reports[i].FaultTable() {
			t.Errorf("fault table differs between workers=%d and workers=%d",
				workerCounts[0], workerCounts[i])
		}
	}
	// The profile must actually bite, or the invariance is vacuous.
	sawFailure := false
	for _, c := range reports[0].Cells {
		if c.Faulty() {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("mtbf profile injected no failures across 200 seeds")
	}
}

// Turning faults off must reproduce the fault-free golden results exactly:
// the seeded path ignores its substrate source when no profile is enabled.
func TestDisabledFaultsMatchFaultFreeGolden(t *testing.T) {
	w := allWorkflows()[0]
	for seed := int64(1); seed <= 10; seed++ {
		plain, err := core.Run(&core.KubernetesEnv{Nodes: 4, CoresPerNode: 8},
			w.Gen(randx.New(seed)), randx.New(1))
		if err != nil {
			t.Fatal(err)
		}
		rng := randx.New(seed)
		seeded, err := core.Run(&core.KubernetesEnv{Nodes: 4, CoresPerNode: 8},
			w.Gen(rng), rng.Fork())
		if err != nil {
			t.Fatal(err)
		}
		if plain.Fingerprint() != seeded.Fingerprint() {
			t.Fatalf("seed %d: seeded fault-free run diverged:\n  %s\n  %s",
				seed, plain.Fingerprint(), seeded.Fingerprint())
		}
	}
}

// Per-seed chaos runs are reproducible one-offs: the same seed through
// core.Run twice gives identical fingerprints, including failure accounting.
func TestChaosRunSeededReproducible(t *testing.T) {
	for _, prof := range []fault.Profile{fault.MTBF(), fault.Spot(), fault.Storm()} {
		for seed := int64(1); seed <= 5; seed++ {
			run := func() string {
				rng := randx.New(seed)
				w := allWorkflows()[0].Gen(rng)
				res, err := core.Run(&core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: prof},
					w, rng.Fork())
				if err != nil {
					t.Fatalf("%s seed %d: %v", prof.Name, seed, err)
				}
				return res.Fingerprint()
			}
			if a, b := run(), run(); a != b {
				t.Fatalf("%s seed %d: %s != %s", prof.Name, seed, a, b)
			}
		}
	}
}
