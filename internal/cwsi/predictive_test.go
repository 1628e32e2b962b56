package cwsi

import (
	"sort"
	"strings"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/predict"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// tenthPredictor underestimates every runtime tenfold: it always predicts
// 10s for tasks that truly run 100s. It does not implement predict.Sampler,
// so the CWS trusts it immediately — the worst case for the overrun killer.
type tenthPredictor struct{}

func (tenthPredictor) Name() string                { return "tenth" }
func (tenthPredictor) Observe(predict.Observation) {}
func (tenthPredictor) Predict(string, float64, float64) (float64, bool) {
	return 10, true
}

func overrunWorkflow() *dag.Workflow {
	w := dag.New("overrun")
	w.Add(&dag.Task{ID: "src", Name: "stage", NominalDur: 100})
	w.Add(&dag.Task{ID: "mid1", Name: "stage", NominalDur: 100, Deps: []dag.TaskID{"src"}})
	w.Add(&dag.Task{ID: "mid2", Name: "stage", NominalDur: 100, Deps: []dag.TaskID{"src"}})
	w.Add(&dag.Task{ID: "sink", Name: "stage", NominalDur: 100, Deps: []dag.TaskID{"mid1", "mid2"}})
	return w
}

// runWithRecovery drives the registered workflow id on a StreamRunner under
// the default recovery policy and returns the run's recovery accounting.
func runWithRecovery(t *testing.T, c *CWS, id string) rm.RunStats {
	t.Helper()
	x, err := dag.NewWorkflowExpander(c.workflows[id].wf)
	if err != nil {
		t.Fatal(err)
	}
	p := fault.DefaultRetryPolicy()
	sr := &rm.StreamRunner{Manager: c.mgr, Source: x, Retry: &p, RetryRNG: randx.New(7)}
	if err := c.Bind(sr, id, 0, 0); err != nil {
		t.Fatal(err)
	}
	sr.Run()
	if err := sr.Err(); err != nil {
		t.Fatalf("misprediction must not fail the workflow: %v", err)
	}
	return sr.Stats()
}

func completedSet(c *CWS, wfID string) []string {
	var ids []string
	for _, rec := range records(c, wfID) {
		if !rec.Failed {
			ids = append(ids, string(rec.TaskID))
		}
	}
	sort.Strings(ids)
	return ids
}

// TestOverrunMispredictionConverges drives the worst misprediction the
// overrun killer can see — a predictor that underestimates every runtime
// 10x — and proves graceful degradation: each kill routes through the
// shared fault.RetryPolicy, the walltime budget inflates geometrically
// (pred x slack x inflation^kills: 15s, 30s, 60s, 120s), and by the fourth
// attempt the 100s truth fits. The workflow converges to exactly the
// fault-free golden completion set, with the recovery metadata (overrun
// errors, retry backoff annotations) visible in provenance.
func TestOverrunMispredictionConverges(t *testing.T) {
	golden := New(rm.NewTaskManager(smallCluster(sim.NewEngine(), 2, 4), nil), Baseline{}, nil)
	if err := golden.RegisterWorkflow("w", overrunWorkflow()); err != nil {
		t.Fatal(err)
	}
	if _, err := runWorkflow(golden, "w", 0); err != nil {
		t.Fatal(err)
	}
	want := completedSet(golden, "w")
	if len(want) != 4 {
		t.Fatalf("golden completed %v, want all 4 tasks", want)
	}

	cws := New(rm.NewTaskManager(smallCluster(sim.NewEngine(), 2, 4), nil), Baseline{}, tenthPredictor{})
	cws.SetOverrunPolicy(1.5, 2)
	if err := cws.RegisterWorkflow("w", overrunWorkflow()); err != nil {
		t.Fatal(err)
	}
	st := runWithRecovery(t, cws, "w")
	if got := completedSet(cws, "w"); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("completed %v, want golden set %v", got, want)
	}

	// Budgets 15/30/60 are overrun-killed; 120 admits the 100s truth: three
	// kills per task, all recovered, none terminal.
	if st.Failures != 3*4 || st.Retries != 3*4 {
		t.Errorf("recovery stats = %+v, want 12 failed attempts and 12 retries", st)
	}
	if st.TerminalFailures != 0 || st.Skipped != 0 {
		t.Errorf("recovery stats = %+v, want no terminal failures", st)
	}
	if st.BackoffSec <= 0 {
		t.Errorf("backoff = %v, want > 0 (policy-delayed resubmission)", st.BackoffSec)
	}

	// The kills and the retry plumbing are first-class provenance: failed
	// attempts carry the overrun error and the policy's backoff annotation.
	var overruns, annotated int
	for _, rec := range records(cws, "w") {
		if rec.Failed && strings.Contains(rec.Error, "walltime-overrun") {
			overruns++
			if rec.RetryDelaySec > 0 {
				annotated++
			}
		}
	}
	if overruns != 3*4 {
		t.Errorf("provenance overrun records = %d, want %d", overruns, 3*4)
	}
	if annotated != overruns {
		t.Errorf("retry-annotated overrun records = %d, want %d", annotated, overruns)
	}

	// The realized prediction errors of the successful attempts are on the
	// books too: four successes, each predicted 10s against ~100s truth.
	pe := cws.PredictionErrors()
	if pe.N != 4 {
		t.Errorf("prediction errors observed = %d, want 4", pe.N)
	}
	if mre := pe.MRE(); mre < 0.85 || mre > 0.95 {
		t.Errorf("MRE = %v, want ~0.9 (10s predicted vs 100s truth)", mre)
	}
}

// TestOverrunDisabledBySlackZero pins the off switch: with no overrun
// policy installed, the same 10x underestimate changes nothing — no kills,
// no retries, single-attempt completion.
func TestOverrunDisabledBySlackZero(t *testing.T) {
	cws := New(rm.NewTaskManager(smallCluster(sim.NewEngine(), 2, 4), nil), Baseline{}, tenthPredictor{})
	if err := cws.RegisterWorkflow("w", overrunWorkflow()); err != nil {
		t.Fatal(err)
	}
	st := runWithRecovery(t, cws, "w")
	for _, rec := range records(cws, "w") {
		if rec.Failed {
			t.Fatalf("failed attempt %+v with no policy installed", rec)
		}
	}
	if st.Failures != 0 {
		t.Fatalf("recovery stats = %+v, want none", st)
	}
}

// TestColdPredictorChangesNothing pins the warmth gate at the CWS level: a
// sampler-aware predictor below MinPredictionSamples must leave makespan
// and provenance identical to no predictor at all, even with the full
// prediction loop (overrun policy, backfill oracle, memory model) armed.
func TestColdPredictorChangesNothing(t *testing.T) {
	run := func(armed bool) (sim.Time, int) {
		var p predict.RuntimePredictor
		if armed {
			p = predict.NewLotaru()
		}
		cws := New(rm.NewTaskManager(smallCluster(sim.NewEngine(), 2, 4), nil), Baseline{}, p)
		if armed {
			// More samples than the run can ever produce: the model trains
			// from provenance but never crosses the warmth gate.
			cws.SetMinPredictionSamples(1 << 30)
			cws.SetMemPredictor(predict.NewMem(0.2))
			cws.SetOverrunPolicy(1.5, 2)
			cws.EnablePredictedBackfill()
		}
		if err := cws.RegisterWorkflow("w", overrunWorkflow()); err != nil {
			t.Fatal(err)
		}
		ms, err := runWorkflow(cws, "w", 0)
		if err != nil {
			t.Fatal(err)
		}
		return ms, cws.Provenance().Len()
	}
	offMs, offRecs := run(false)
	coldMs, coldRecs := run(true)
	if offMs != coldMs || offRecs != coldRecs {
		t.Fatalf("cold predictor diverged: makespan %v vs %v, records %d vs %d",
			offMs, coldMs, offRecs, coldRecs)
	}
}
