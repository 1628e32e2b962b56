package hhcw_test

// End-to-end chaos tests: the unified fault-injection + recovery-policy layer
// exercised through the public environment API, with the failure story
// flowing all the way into provenance and the trace export.

import (
	"strings"
	"testing"

	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
	"hhcw/internal/trace"
)

// TestChaosRecoveryEndToEnd runs a CWS-scheduled workflow under the storm
// profile and checks the whole robustness path: attempts fail, the shared
// policy retries them with backoff, the workflow completes, and the failed
// attempts land in provenance (with recovery metadata) and in the trace's
// "failed" lane.
func TestChaosRecoveryEndToEnd(t *testing.T) {
	rng := randx.New(3)
	w := dag.MontageLike(rng, 16, dag.GenOpts{MeanDur: 300, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9})
	env := &core.KubernetesEnv{
		Nodes: 4, CoresPerNode: 8,
		Strategy: cwsi.Rank{},
		Faults:   fault.Storm(),
	}
	res, err := core.Run(env, w, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedAttempts == 0 || res.Retries == 0 || res.BackoffSec <= 0 {
		t.Fatalf("storm profile did not bite: %+v", res)
	}
	if !strings.Contains(res.Environment, "+faults/storm") {
		t.Fatalf("environment name %q must carry the fault profile", res.Environment)
	}

	store, ok := res.Provenance.(*provenance.Store)
	if !ok {
		t.Fatal("CWS run lost its provenance store")
	}
	failedRecs, annotated := 0, 0
	for _, r := range store.All() {
		if !r.Failed {
			continue
		}
		failedRecs++
		if r.RetryPolicy != "" {
			annotated++
			if r.RetryDelaySec <= 0 {
				t.Fatalf("annotated retry with no delay: %+v", r)
			}
		}
	}
	if failedRecs == 0 {
		t.Fatal("no failed attempts recorded in provenance")
	}
	if annotated == 0 {
		t.Fatal("no failed attempt carries recovery-policy metadata")
	}

	doc := trace.FromProvenance(store)
	failedEvents, withMeta := 0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "failed" {
			continue
		}
		failedEvents++
		if _, ok := ev.Args["retryPolicy"]; ok {
			withMeta++
		}
	}
	if failedEvents != failedRecs {
		t.Fatalf("trace failed lane has %d events, provenance has %d failed records", failedEvents, failedRecs)
	}
	if withMeta != annotated {
		t.Fatalf("trace retry metadata on %d events, provenance annotated %d", withMeta, annotated)
	}
}

// TestChaosAcrossProfilesCompletes sweeps every named profile through both
// the FIFO and CWS paths over a handful of seeds: chaos runs must either
// complete or degrade gracefully, never stall or error.
func TestChaosAcrossProfilesCompletes(t *testing.T) {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	for _, name := range fault.Names() {
		prof, err := fault.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []cwsi.Strategy{nil, cwsi.Rank{}} {
			for seed := int64(1); seed <= 5; seed++ {
				rng := randx.New(seed)
				w := dag.RandomLayered(rng, 5, 8, opts)
				env := &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: strat, Faults: prof}
				res, err := core.Run(env, w, rng.Fork())
				if err != nil {
					t.Fatalf("%s seed %d (%s): %v", name, seed, env.Name(), err)
				}
				if res.MakespanSec <= 0 {
					t.Fatalf("%s seed %d (%s): empty makespan", name, seed, env.Name())
				}
				if !prof.Enabled() && (res.FailedAttempts != 0 || res.Retries != 0) {
					t.Fatalf("fault-free run reported failures: %+v", res)
				}
			}
		}
	}
}
