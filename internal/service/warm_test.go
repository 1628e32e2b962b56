package service

// Warm-substrate battery for service mode: a reused Substrate with a seed's
// shared inputs must produce bit-identical Results to the cold per-run path
// that generates every admission anew, stay audit-clean after
// fault-injected runs, and transparently fall back to a cold build when the
// scenario's cluster shape doesn't match.

import (
	"strings"
	"testing"

	"hhcw/internal/fault"
	"hhcw/internal/steady"
)

func warmTestConfig(t *testing.T, fairShare bool, faults string) Config {
	t.Helper()
	cfg := ContendedScenario(fairShare)
	cfg.Tenants[0].MaxInFlight = 6
	cfg.Tenants[0].MaxDeferred = 4
	if faults != "" {
		p, err := fault.ByName(faults)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = p
	}
	return cfg
}

// coldWithBaselines is runSeed's reference for one strategy: the contended
// run and each tenant's FIFO solo baseline, every one on a fresh substrate
// with fresh inputs, so each run generates its own admissions.
func coldWithBaselines(t *testing.T, cfg Config, seed int64) *Result {
	t.Helper()
	res, err := run(nil, cfg, seed, -1, nil)
	if err != nil {
		t.Fatalf("fair=%v seed %d cold: %v", cfg.FairShare, seed, err)
	}
	for i := range res.Tenants {
		solo, err := runSolo(nil, cfg, seed, i, nil)
		if err != nil {
			t.Fatalf("seed %d cold solo %d: %v", seed, i, err)
		}
		attachBaseline(&res.Tenants[i], solo.Tenants[0].P99WaitSec, solo.Tenants[0].MeanMakespanSec)
	}
	return res
}

// TestSubstrateWarmMatchesCold runs seeds under several fault profiles on
// one substrate, each seed's five runs on shared inputs, and requires both
// contended results to fingerprint identically to the cold path — the run
// after each is what proves the preceding reset was complete.
func TestSubstrateWarmMatchesCold(t *testing.T) {
	cfg0 := warmTestConfig(t, false, "")
	sub := NewSubstrate(cfg0.Nodes, cfg0.CoresPerNode)
	if sub == nil {
		t.Fatal("NewSubstrate returned nil for a valid shape")
	}
	for _, tc := range []struct {
		faults string
		seed   int64
	}{
		{"", 1},
		{"storm", 2},
		{"mtbf", 3},
		{"", 1}, // repeat the first case on a now well-worn substrate
	} {
		fifoCfg, fairCfg := warmTestConfig(t, false, tc.faults), warmTestConfig(t, true, tc.faults)
		fifo, fair, err := runSeed(sub, fifoCfg, fairCfg, tc.seed)
		if err != nil {
			t.Fatalf("faults=%q seed %d warm: %v", tc.faults, tc.seed, err)
		}
		for _, w := range []struct {
			warm *Result
			cfg  Config
		}{{fifo, fifoCfg}, {fair, fairCfg}} {
			cold := coldWithBaselines(t, w.cfg, tc.seed)
			if wf, cf := w.warm.Fingerprint(), cold.Fingerprint(); wf != cf {
				t.Errorf("fair=%v faults=%q seed %d:\n warm %s\n cold %s",
					w.cfg.FairShare, tc.faults, tc.seed, wf, cf)
			}
		}
	}
}

// TestSubstrateAuditCleanAfterChaos runs every chaos profile on one
// substrate and audits it afterwards: post-reset state must match a fresh
// construction field for field.
func TestSubstrateAuditCleanAfterChaos(t *testing.T) {
	cfg0 := warmTestConfig(t, true, "")
	sub := NewSubstrate(cfg0.Nodes, cfg0.CoresPerNode)
	for _, faults := range []string{"", "mtbf", "spot", "storm"} {
		if _, _, err := runSeed(sub, warmTestConfig(t, false, faults), warmTestConfig(t, true, faults), 4); err != nil {
			t.Fatalf("faults=%q: %v", faults, err)
		}
		if diffs := sub.Audit(); len(diffs) > 0 {
			t.Errorf("faults=%q: %d leaked paths after reset:\n  %s",
				faults, len(diffs), strings.Join(diffs, "\n  "))
		}
	}
}

// TestSubstrateShapeMismatchFallsBackCold proves a mismatched substrate is
// bypassed, not misused: results equal the cold path's bit for bit.
func TestSubstrateShapeMismatchFallsBackCold(t *testing.T) {
	cfg := warmTestConfig(t, true, "")
	sub := NewSubstrate(cfg.Nodes+1, cfg.CoresPerNode) // wrong shape
	warm, err := run(sub, cfg, 6, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Fingerprint() != cold.Fingerprint() {
		t.Errorf("mismatched substrate altered the run:\n got  %s\n want %s",
			warm.Fingerprint(), cold.Fingerprint())
	}
}

// TestSweepWarmMatchesColdRuns pins Sweep's per-worker substrate reuse and
// per-seed shared inputs against cold runs that share nothing.
func TestSweepWarmMatchesColdRuns(t *testing.T) {
	scen := func(fairShare bool) Config { return warmTestConfig(t, fairShare, "") }
	sw, err := Sweep(SweepConfig{Scenario: scen, Seeds: 3, Seed0: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, fairShare := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			cold := coldWithBaselines(t, scen(fairShare), seed)
			if got, want := sw.Fingerprints[i], cold.Fingerprint(); got != want {
				t.Errorf("fair=%v seed %d:\n sweep %s\n cold  %s", fairShare, seed, got, want)
			}
			i++
		}
	}
}

// TestWarmRunOnSharedInputsAllocs locks the allocation ceiling of
// runSeed's steady state: a warm substrate replaying a contended fair-share
// run whose admissions an earlier run of the seed already generated. What
// remains is per admission (workflow validation, the runner's completion
// callback) and per run (tenant state with its bound arrival handler, and
// the Result). It was 589 while every admission allocated its workflow's
// scheduler state; the CWS now recycles a released workflow's state once
// its last attempt ends. It was 460 while every arrival allocated its
// event's callback and every registration its rank table. It is measured
// once two consecutive runs allocate the same (see steady.AllocsPerRun),
// since a warm substrate's pools may grow for several runs.
func TestWarmRunOnSharedInputsAllocs(t *testing.T) {
	cfg := warmTestConfig(t, true, "")
	sub := NewSubstrate(cfg.Nodes, cfg.CoresPerNode)
	in := make([]tenantInputs, len(cfg.Tenants))
	var res *Result
	run1 := func() {
		var err error
		if res, err = run(sub, cfg, 3, -1, in); err != nil {
			t.Fatal(err)
		}
	}
	run1() // generates every admission and fills the pools
	generated := len(in[0].wfs)
	allocs := steady.AllocsPerRun(5, run1)
	if res.Tenants[0].Admitted == 0 || len(in[0].wfs) != generated {
		t.Fatalf("replay admitted %d and generated %d more; the lock would not measure the steady state",
			res.Tenants[0].Admitted, len(in[0].wfs)-generated)
	}
	if allocs > 226 {
		t.Errorf("warm run on shared inputs allocates %.0f objects, want <= 226", allocs)
	}
}
