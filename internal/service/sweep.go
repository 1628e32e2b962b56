package service

import (
	"errors"
	"fmt"

	"hhcw/internal/metrics"
	"hhcw/internal/sweep"
)

// SweepConfig drives a multi-seed service-mode ensemble.
type SweepConfig struct {
	// Scenario returns the FIFO (false) or fair-share (true) config; nil
	// means ContendedScenario. Both strategies share one set of FIFO solo
	// baselines per seed, so the two configs must agree on everything a
	// solo run reads. Sweep rejects them with ErrSoloMismatch when they
	// differ in Nodes, CoresPerNode, HorizonSec, Faults, the tenant count,
	// or a tenant's ID, Arrivals, MaxInFlight or MaxDeferred. Each tenant's
	// Workload must match too; a function cannot be compared, so nothing
	// checks it. A seed's runs share each admission: whichever run admits
	// a tenant's k-th workflow first generates it, so either config's
	// Workload may produce the workflow both strategies run.
	Scenario func(fairShare bool) Config
	Seeds    int
	Seed0    int64
	Workers  int // <= 0 means NumCPU
	Progress func(done, total int)
}

// TenantAgg is one (strategy, tenant) row of the sweep's fairness table:
// every statistic is aggregated across the ensemble's seeds.
type TenantAgg struct {
	Strategy string
	Tenant   string
	Weight   float64

	P99Wait       metrics.Summary // per-seed p99 queue waits
	SoloP99Wait   metrics.Summary // per-seed solo-baseline p99 waits
	WaitInflation float64         // mean contended p99 / mean solo p99
	Makespan      metrics.Summary // per-seed mean makespans
	MakespanInfl  float64         // mean contended makespan / mean solo makespan
	RejectionRate metrics.Summary // per-seed rejection rates
	Deferred      int             // total deferred admissions across seeds
	Rejected      int             // total rejected arrivals across seeds
}

// StrategyAgg is one strategy's cross-tenant fairness headline.
type StrategyAgg struct {
	Strategy string
	// MaxMinP99Ratio divides the largest tenant mean p99 wait by the
	// smallest — 1.0 is perfect p99 fairness; plain FIFO under the §6
	// pathology stays near 1 while inflating everyone, and a miscalibrated
	// fair share drives it up by starving whoever it throttles.
	MaxMinP99Ratio float64
	// WorstWaitInflation is the largest per-tenant mean p99 inflation over
	// the solo baseline — the pathology headline.
	WorstWaitInflation float64
	MeanUtilization    float64
}

// SweepResult is the ensemble outcome. Fingerprints lists every per-run
// digest in a fixed order — strategy-major, then seed — and Fingerprint
// folds them, so equal Fingerprint values prove the whole ensemble made
// bit-identical decisions regardless of worker count.
type SweepResult struct {
	Seeds        int
	Seed0        int64
	Runs         []*Result // strategy-major: all FIFO seeds, then all fair-share seeds
	Tenants      []TenantAgg
	Strategies   []StrategyAgg
	Fingerprints []string
	Fingerprint  string
}

// ErrSoloMismatch reports a sweep scenario whose FIFO and fair-share
// configs would give different solo baselines. The configs also share each
// seed's admissions, generated by either one's Workload (see
// SweepConfig.Scenario).
var ErrSoloMismatch = errors.New("service: fifo and fair-share scenarios give different solo baselines")

// soloMismatch names the first comparable field a FIFO solo run reads in
// which a and b differ, or returns "" when they agree on all of them.
func soloMismatch(a, b *Config) string {
	switch {
	case a.Nodes != b.Nodes:
		return "Nodes"
	case a.CoresPerNode != b.CoresPerNode:
		return "CoresPerNode"
	case a.HorizonSec != b.HorizonSec:
		return "HorizonSec"
	case a.Faults != b.Faults:
		return "Faults"
	case len(a.Tenants) != len(b.Tenants):
		return "the tenant count"
	}
	for i := range a.Tenants {
		x, y := &a.Tenants[i], &b.Tenants[i]
		switch {
		case x.ID != y.ID:
			return fmt.Sprintf("tenant %d ID", i)
		case x.Arrivals != y.Arrivals:
			return fmt.Sprintf("tenant %q Arrivals", x.ID)
		case x.MaxInFlight != y.MaxInFlight:
			return fmt.Sprintf("tenant %q MaxInFlight", x.ID)
		case x.MaxDeferred != y.MaxDeferred:
			return fmt.Sprintf("tenant %q MaxDeferred", x.ID)
		}
	}
	return ""
}

// Sweep runs the scenario over cfg.Seeds seeds under both strategies on a
// worker pool, then reduces in a fixed order. Each seed runs its contended
// FIFO run and the per-tenant FIFO solo baselines once, then the contended
// fair-share run, which is compared against the same baselines: a solo run
// always schedules under FIFO, so the fair-share config would only repeat
// them. A seed's runs share their inputs, so each admitted workflow is
// generated once per seed. Results are bit-identical at any worker count:
// each seed's runs land in per-index slots and every aggregate folds
// strategy-major, seed-ascending.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	if cfg.Seeds <= 0 {
		return nil, fmt.Errorf("service: sweep needs a positive seed count")
	}
	scen := cfg.Scenario
	if scen == nil {
		scen = ContendedScenario
	}
	fifoCfg, fairCfg := scen(false), scen(true)
	if f := soloMismatch(&fifoCfg, &fairCfg); f != "" {
		return nil, fmt.Errorf("%w: %s differs", ErrSoloMismatch, f)
	}
	type pair struct{ fifo, fair *Result }
	pairs := make([]pair, cfg.Seeds)
	// One warm substrate per worker, built lazily from the scenario's shape
	// and reused (reset in place) across every run the worker executes: both
	// strategies, all seeds, and each seed's solo baselines. A nil substrate
	// (degenerate scenario shape) runs cold, where validation reports the
	// config error.
	subs := make([]*Substrate, sweep.PoolWorkers(cfg.Seeds, cfg.Workers))
	built := make([]bool, len(subs))
	err := sweep.ForEachWorker(cfg.Seeds, cfg.Workers, cfg.Progress, func(worker, idx int) error {
		seed := cfg.Seed0 + int64(idx)
		if !built[worker] {
			built[worker] = true
			subs[worker] = NewSubstrate(fifoCfg.Nodes, fifoCfg.CoresPerNode)
		}
		fifo, fair, err := runSeed(subs[worker], scen(false), scen(true), seed)
		if err != nil {
			return err
		}
		pairs[idx] = pair{fifo, fair}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &SweepResult{Seeds: cfg.Seeds, Seed0: cfg.Seed0}
	for _, strat := range []func(pair) *Result{
		func(p pair) *Result { return p.fifo },
		func(p pair) *Result { return p.fair },
	} {
		for _, p := range pairs {
			r := strat(p)
			res.Runs = append(res.Runs, r)
			res.Fingerprints = append(res.Fingerprints, r.Fingerprint())
		}
	}
	res.Fingerprint = aggregateFingerprint(res.Fingerprints)
	res.reduce()
	return res, nil
}

// reduce folds the per-seed runs into the per-tenant and per-strategy
// aggregates. Runs is strategy-major, so each strategy's block is
// res.Runs[k*Seeds : (k+1)*Seeds].
func (res *SweepResult) reduce() {
	for k := 0; k < len(res.Runs)/res.Seeds; k++ {
		block := res.Runs[k*res.Seeds : (k+1)*res.Seeds]
		strategy := block[0].Strategy
		var util []float64
		agg := StrategyAgg{Strategy: strategy}
		minP99, maxP99 := 0.0, 0.0
		for ti := range block[0].Tenants {
			ta := TenantAgg{
				Strategy: strategy,
				Tenant:   block[0].Tenants[ti].Tenant,
				Weight:   block[0].Tenants[ti].Weight,
			}
			var p99s, solos, mks, soloMks, rejRates []float64
			for _, r := range block {
				t := &r.Tenants[ti]
				p99s = append(p99s, t.P99WaitSec)
				solos = append(solos, t.SoloP99WaitSec)
				mks = append(mks, t.MeanMakespanSec)
				soloMks = append(soloMks, t.SoloMeanMakespanSec)
				rejRates = append(rejRates, t.RejectionRate)
				ta.Deferred += t.Deferred
				ta.Rejected += t.Rejected
			}
			ta.P99Wait = metrics.Summarize(p99s)
			ta.SoloP99Wait = metrics.Summarize(solos)
			ta.Makespan = metrics.Summarize(mks)
			ta.RejectionRate = metrics.Summarize(rejRates)
			if s := ta.SoloP99Wait.Mean(); s > 0 {
				ta.WaitInflation = ta.P99Wait.Mean() / s
			}
			if s := mean(soloMks); s > 0 {
				ta.MakespanInfl = ta.Makespan.Mean() / s
			}
			res.Tenants = append(res.Tenants, ta)

			m := ta.P99Wait.Mean()
			if ti == 0 || m > maxP99 {
				maxP99 = m
			}
			if ti == 0 || m < minP99 {
				minP99 = m
			}
			if ta.WaitInflation > agg.WorstWaitInflation {
				agg.WorstWaitInflation = ta.WaitInflation
			}
		}
		for _, r := range block {
			util = append(util, r.Utilization)
		}
		agg.MeanUtilization = metrics.Summarize(util).Mean()
		if minP99 > 0 {
			agg.MaxMinP99Ratio = maxP99 / minP99
		}
		res.Strategies = append(res.Strategies, agg)
	}
}
