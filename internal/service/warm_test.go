package service

// Warm-substrate battery for service mode: a reused Substrate must produce
// bit-identical Results to the cold per-run path, stay audit-clean after
// fault-injected runs, and transparently fall back to a cold build when the
// scenario's cluster shape doesn't match.

import (
	"strings"
	"testing"

	"hhcw/internal/fault"
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

// TestSubstrateWarmMatchesCold interleaves strategies, fault profiles, and
// solo baselines on one substrate and requires every run to fingerprint
// identically to the cold path — the run after each is what proves the
// preceding reset was complete.
func TestSubstrateWarmMatchesCold(t *testing.T) {
	cfg0 := warmTestConfig(t, false, "")
	sub := NewSubstrate(cfg0.Nodes, cfg0.CoresPerNode)
	if sub == nil {
		t.Fatal("NewSubstrate returned nil for a valid shape")
	}
	for _, tc := range []struct {
		fairShare bool
		faults    string
		seed      int64
	}{
		{false, "", 1},
		{true, "", 1},
		{false, "storm", 2},
		{true, "mtbf", 3},
		{false, "", 1}, // repeat the first case on a now well-worn substrate
	} {
		cfg := warmTestConfig(t, tc.fairShare, tc.faults)
		warm, err := sub.RunWithBaselines(cfg, tc.seed)
		if err != nil {
			t.Fatalf("fair=%v faults=%q seed %d warm: %v", tc.fairShare, tc.faults, tc.seed, err)
		}
		cold, err := RunWithBaselines(cfg, tc.seed)
		if err != nil {
			t.Fatalf("fair=%v faults=%q seed %d cold: %v", tc.fairShare, tc.faults, tc.seed, err)
		}
		if wf, cf := warm.Fingerprint(), cold.Fingerprint(); wf != cf {
			t.Errorf("fair=%v faults=%q seed %d:\n warm %s\n cold %s",
				tc.fairShare, tc.faults, tc.seed, wf, cf)
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
		cfg := warmTestConfig(t, true, faults)
		if _, err := sub.RunWithBaselines(cfg, 4); err != nil {
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
	warm, err := sub.Run(cfg, 6)
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

// TestSweepWarmMatchesColdRuns pins Sweep's per-worker substrate reuse
// against per-seed cold RunWithBaselines calls.
func TestSweepWarmMatchesColdRuns(t *testing.T) {
	scen := func(fairShare bool) Config { return warmTestConfig(t, fairShare, "") }
	sw, err := Sweep(SweepConfig{Scenario: scen, Seeds: 3, Seed0: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, fairShare := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			cold, err := RunWithBaselines(scen(fairShare), seed)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sw.Fingerprints[i], cold.Fingerprint(); got != want {
				t.Errorf("fair=%v seed %d:\n sweep %s\n cold  %s", fairShare, seed, got, want)
			}
			i++
		}
	}
}
