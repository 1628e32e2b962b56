package service

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"hhcw/internal/compose"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
)

// TestSweepWorkerCountInvariant is the service-mode determinism gate: the
// ensemble fingerprint — every per-run digest folded in strategy-major,
// seed-ascending order — must be bit-identical at any worker count.
func TestSweepWorkerCountInvariant(t *testing.T) {
	const seeds = 10
	base, err := Sweep(SweepConfig{Seeds: seeds, Seed0: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Fingerprints) != 2*seeds {
		t.Fatalf("fingerprints = %d, want %d", len(base.Fingerprints), 2*seeds)
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		got, err := Sweep(SweepConfig{Seeds: seeds, Seed0: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint != base.Fingerprint {
			t.Fatalf("workers=%d changed the ensemble fingerprint: %s vs %s",
				workers, got.Fingerprint, base.Fingerprint)
		}
		for i := range base.Fingerprints {
			if got.Fingerprints[i] != base.Fingerprints[i] {
				t.Fatalf("workers=%d changed run %d fingerprint", workers, i)
			}
		}
	}
	if shifted, err := Sweep(SweepConfig{Seeds: seeds, Seed0: 2, Workers: 1}); err != nil {
		t.Fatal(err)
	} else if shifted.Fingerprint == base.Fingerprint {
		t.Fatal("different seed base produced the same ensemble fingerprint")
	}
}

// TestContendedScenarioAcceptance pins the §6 pathology and its fair-share
// fix on a reduced ensemble (the full 200-seed table lives in the sweeprun
// -arrivals mode): under plain FIFO the heavy tenant's p99 queue wait
// inflates at least 2× over its solo baseline, and the fair-share strategy
// keeps the cross-tenant p99 spread within 1.5×.
func TestContendedScenarioAcceptance(t *testing.T) {
	res, err := Sweep(SweepConfig{Seeds: 25, Seed0: 1, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategies) != 2 {
		t.Fatalf("strategies = %+v", res.Strategies)
	}
	fifo, fair := res.Strategies[0], res.Strategies[1]
	if fifo.Strategy != "fifo" || fair.Strategy != "fairshare" {
		t.Fatalf("strategy order = %s, %s", fifo.Strategy, fair.Strategy)
	}

	var fifoHeavy *TenantAgg
	for i := range res.Tenants {
		if res.Tenants[i].Strategy == "fifo" && res.Tenants[i].Tenant == "heavy" {
			fifoHeavy = &res.Tenants[i]
		}
	}
	if fifoHeavy == nil {
		t.Fatal("no fifo/heavy aggregate")
	}
	if fifoHeavy.SoloP99Wait.Mean() <= 0 {
		t.Fatalf("solo baseline shows no queueing (p99 %.2f) — scenario miscalibrated", fifoHeavy.SoloP99Wait.Mean())
	}
	if fifoHeavy.WaitInflation < 2 {
		t.Fatalf("FIFO heavy-tenant p99 inflation %.2f < 2 — pathology not reproduced", fifoHeavy.WaitInflation)
	}
	if fair.MaxMinP99Ratio > 1.5 {
		t.Fatalf("fair-share max/min tenant p99 ratio %.2f > 1.5 — fairness criterion missed", fair.MaxMinP99Ratio)
	}
	if fair.MaxMinP99Ratio <= 0 {
		t.Fatal("fair-share ratio unset")
	}
	// Admission control must have been exercised somewhere in the ensemble
	// or the backpressure path is dead code in the headline experiment.
	deferred := 0
	for _, ta := range res.Tenants {
		deferred += ta.Deferred
	}
	if deferred == 0 {
		t.Fatal("no admissions were ever deferred across the ensemble")
	}
}

// TestSweepRejectsSoloMismatch: the two strategies share one set of solo
// baselines, so a scenario that tightens an admission budget only under
// fair share is refused rather than compared against the wrong baseline.
func TestSweepRejectsSoloMismatch(t *testing.T) {
	scen := func(fairShare bool) Config {
		cfg := ContendedScenario(fairShare)
		if fairShare {
			cfg.Tenants[1].MaxInFlight = 4
		}
		return cfg
	}
	_, err := Sweep(SweepConfig{Scenario: scen, Seeds: 2, Seed0: 1, Workers: 1})
	if !errors.Is(err, ErrSoloMismatch) || !strings.Contains(err.Error(), `tenant "medium" MaxInFlight`) {
		t.Fatalf("err = %v, want ErrSoloMismatch naming medium's MaxInFlight", err)
	}
	scen = func(fairShare bool) Config {
		cfg := ContendedScenario(fairShare)
		if fairShare {
			cfg.Tenants[2].Arrivals.RatePerHour = 5
		}
		return cfg
	}
	_, err = Sweep(SweepConfig{Scenario: scen, Seeds: 2, Seed0: 1, Workers: 1})
	if !errors.Is(err, ErrSoloMismatch) || !strings.Contains(err.Error(), `tenant "light" Arrivals`) {
		t.Fatalf("err = %v, want ErrSoloMismatch naming light's Arrivals", err)
	}
	// Fields a FIFO solo run never reads may differ.
	scen = func(fairShare bool) Config {
		cfg := ContendedScenario(fairShare)
		if fairShare {
			cfg.Tenants[0].Weight = 9
		}
		return cfg
	}
	if _, err := Sweep(SweepConfig{Scenario: scen, Seeds: 1, Seed0: 1, Workers: 1}); err != nil {
		t.Fatalf("a weight difference rejected: %v", err)
	}
}

// TestSweepRunsPerSeed counts the runs each seed executes on the substrate:
// the contended FIFO run, one solo baseline per tenant, and the contended
// fair-share run — five for three tenants, where running the baselines per
// strategy took eight.
func TestSweepRunsPerSeed(t *testing.T) {
	const seeds = 3
	var runs int
	scen := func(fairShare bool) Config {
		cfg := ContendedScenario(fairShare)
		cfg.inspect = func(*serviceRun) { runs++ }
		return cfg
	}
	res, err := Sweep(SweepConfig{Scenario: scen, Seeds: seeds, Seed0: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := seeds * (2 + len(ContendedScenario(false).Tenants)); runs != want {
		t.Fatalf("%d runs for %d seeds, want %d", runs, seeds, want)
	}
	// The fair-share runs carry the FIFO runs' solo baselines.
	for i := 0; i < seeds; i++ {
		fifo, fair := res.Runs[i], res.Runs[seeds+i]
		for ti := range fifo.Tenants {
			f, s := &fifo.Tenants[ti], &fair.Tenants[ti]
			if s.SoloP99WaitSec != f.SoloP99WaitSec || s.SoloMeanMakespanSec != f.SoloMeanMakespanSec {
				t.Fatalf("seed %d tenant %s: fair-share baseline %v/%v, fifo %v/%v", fifo.Seed, f.Tenant,
					s.SoloP99WaitSec, s.SoloMeanMakespanSec, f.SoloP99WaitSec, f.SoloMeanMakespanSec)
			}
		}
	}
}

// TestSweepFaultFingerprints pins the sweep's fingerprint under each fault
// profile. storm's TaskFailProb exercises the per-admission failure plans
// the seed's runs share; the fault-free sweep is pinned by the bench check
// digest and TestProvenanceDigestService.
func TestSweepFaultFingerprints(t *testing.T) {
	for _, tc := range []struct{ profile, want string }{
		{"mtbf", "c9f3bdb98719c7bd"},
		{"spot", "748c171a9e8a24c1"},
		{"storm", "8ac31c659f38db36"},
	} {
		p, err := fault.ByName(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		scen := func(fairShare bool) Config {
			cfg := ContendedScenario(fairShare)
			cfg.Faults = p
			return cfg
		}
		sw, err := Sweep(SweepConfig{Scenario: scen, Seeds: 6, Seed0: 3, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", tc.profile, err)
		}
		if sw.Fingerprint != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.profile, sw.Fingerprint, tc.want)
		}
	}
}

// TestSweepGeneratesEachAdmissionOnce counts workflow compiles on the
// bench's tightened scenario. A tenant's k-th admission is the same
// workflow in every run that arms the tenant (contended FIFO, its solo
// baseline, contended fair share), so a seed compiles each tenant's
// workflows once: as many as the largest Admitted among those three runs.
func TestSweepGeneratesEachAdmissionOnce(t *testing.T) {
	const seeds = 10
	compiles := 0
	// admitted[r][i] is tenant i's Admitted in the r-th run, or -1 when run
	// r did not arm tenant i.
	var admitted [][]int
	scen := func(counting bool) func(bool) Config {
		return func(fairShare bool) Config {
			cfg := warmTestConfig(t, fairShare, "")
			if !counting {
				return cfg
			}
			for i := range cfg.Tenants {
				inner := cfg.Tenants[i].Workload
				cfg.Tenants[i].Workload = func(rng *randx.Source) compose.Compiler {
					c := inner(rng)
					return compose.Func(func() (*dag.Workflow, error) {
						compiles++
						return c.Compile()
					})
				}
			}
			cfg.inspect = func(sv *serviceRun) {
				row := make([]int, len(sv.tenants))
				for i, ts := range sv.tenants {
					row[i] = -1
					if sv.only < 0 || sv.only == i {
						row[i] = ts.admitted
					}
				}
				admitted = append(admitted, row)
			}
			return cfg
		}
	}
	plain, err := Sweep(SweepConfig{Scenario: scen(false), Seeds: seeds, Seed0: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	counted, err := Sweep(SweepConfig{Scenario: scen(true), Seeds: seeds, Seed0: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if counted.Fingerprint != plain.Fingerprint {
		t.Fatalf("counting workload moved the fingerprint: %s vs %s", counted.Fingerprint, plain.Fingerprint)
	}
	const want = "dff1d44234e16342"
	if plain.Fingerprint != want {
		t.Errorf("fingerprint %s, want %s", plain.Fingerprint, want)
	}
	// One worker runs each seed's five runs back to back.
	perSeed := 2 + len(warmTestConfig(t, false, "").Tenants)
	if len(admitted) != seeds*perSeed {
		t.Fatalf("%d runs inspected, want %d", len(admitted), seeds*perSeed)
	}
	wantCompiles := 0
	for s := 0; s < seeds; s++ {
		runs := admitted[s*perSeed : (s+1)*perSeed]
		for i := range runs[0] {
			most := 0
			for _, row := range runs {
				most = max(most, row[i])
			}
			wantCompiles += most
		}
	}
	if compiles != wantCompiles {
		t.Errorf("%d compiles, want %d (one per seed, tenant and admission)", compiles, wantCompiles)
	}
	t.Logf("%d compiles for %d seeds", compiles, seeds)
}
