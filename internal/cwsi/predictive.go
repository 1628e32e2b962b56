package cwsi

import (
	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/predict"
	"hhcw/internal/provenance"
	"hhcw/internal/rm"
)

// This file closes the §3.4 prediction loop on the scheduling side: the
// predictors trained online from provenance (see CWS.train) feed a
// predicted-critical-path priority term (Context.PredictedRank, the
// Predictive strategy wrapper), predicted-duration-aware backfill in the
// resource manager (EnablePredictedBackfill), and predicted-walltime
// enforcement with graceful misprediction recovery (SetOverrunPolicy).
//
// Everything here is gated on model warmth: until a task name has
// MinPredictionSamples valid observations, no prediction is consulted and
// every decision falls back bit-identically to the unpredicted path — the
// cold-start contract the golden fingerprint tests pin.

// SetMinPredictionSamples sets how many valid per-name observations the
// predictors need before their predictions drive decisions (priority terms,
// node refinement, backfill admission, overrun kills, memory right-sizing).
// Values below 1 mean 1 — a model that has seen a name at all counts as
// warm, the historical behavior.
func (c *CWS) SetMinPredictionSamples(n int) { c.minPredSamples = n }

func (c *CWS) minWarm() int {
	if c.minPredSamples > 1 {
		return c.minPredSamples
	}
	return 1
}

// warmFor reports whether the runtime predictor is warm enough for a task
// name. Predictors that cannot report sample counts (no predict.Sampler)
// are trusted as soon as they exist; all bundled predictors implement it.
func (c *CWS) warmFor(name string) bool {
	if c.predictor == nil {
		return false
	}
	if s, ok := c.predictor.(predict.Sampler); ok {
		return s.Samples(name) >= c.minWarm()
	}
	return true
}

// memWarmFor is the same gate for the memory model.
func (c *CWS) memWarmFor(name string) bool {
	return c.memPred != nil && c.memPred.Samples(name) >= c.minWarm()
}

// PredictedRank returns the predicted-critical-path upward rank of s's
// task: HEFT-style rank over reference-machine *predicted* runtimes, with
// the declared nominal duration as per-task fallback. It returns 0 for every
// task while the model is cold for every name in the workflow, so a
// strategy term built on it contributes nothing until predictions exist,
// and 0 for a submission the CWS did not bind.
//
// Ranks are memoized per workflow under the priority-cache generation
// (prioGen): every provenance record bumps the generation, so ranks — like
// the strategies' memoized priorities — are recomputed exactly when the
// knowledge they derive from may have changed, and never more often.
func (ctx *Context) PredictedRank(s *rm.Submission) float64 {
	tr := attemptOf(s)
	if tr == nil {
		return 0
	}
	c, st := ctx.cws, tr.st
	if st.predGen != c.prioGen {
		st.predGen = c.prioGen
		st.predRanks = c.predictedRanks(st)
	}
	if len(st.predRanks) == 0 {
		return 0
	}
	return st.predRanks[tr.idx]
}

// predictedRanks computes the predicted upward ranks for one workflow, by
// insertion position, into st.predRanks' storage; they are empty while the
// model is cold for every task name in it.
func (c *CWS) predictedRanks(st *wfState) []float64 {
	warmAny := false
	for i := range st.wf.Len() {
		if c.warmFor(st.wf.At(i).Name) {
			warmAny = true
			break
		}
	}
	if !warmAny {
		return st.predRanks[:0]
	}
	return st.wf.UpwardRanks(st.predRanks, func(t *dag.Task) float64 {
		if c.warmFor(t.Name) {
			if sec, ok := c.predictor.Predict(t.Name, t.InputBytes, 1); ok {
				return sec
			}
		}
		return t.NominalDur
	})
}

// Predictive composes an inner strategy with the prediction loop:
//
//   - Priority adds PredictedRank to the inner priority, so a stateful
//     policy (the service layer's deficit-weighted fair share, say) keeps
//     its own ordering and gains a predicted-critical-path tie-break/boost.
//     The sum is memoized under the shared prioGen cache, and PredictedRank
//     invalidates on the same generation — composition cannot go stale.
//   - PickNode consults the inner strategy first and respects its veto
//     (a nil pick stays nil, and any state the inner pick mutates is
//     mutated exactly once). When the model is warm for the
//     submission's task name, the pick is refined to the candidate with the
//     lowest predicted runtime (measured machine speeds); predictions that
//     tie keep the inner choice.
//
// While the model is cold both methods delegate exactly, so a Predictive
// wrapper over strategy S is bit-identical to S until predictions engage.
// A nil Inner behaves like Baseline (submission order, first fit).
type Predictive struct {
	Inner Strategy
}

// Name implements Strategy.
func (p Predictive) Name() string {
	if p.Inner != nil {
		return "predictive+" + p.Inner.Name()
	}
	return "predictive"
}

// Priority implements Strategy.
func (p Predictive) Priority(s *rm.Submission, ctx *Context) float64 {
	base := 0.0
	if p.Inner != nil {
		base = p.Inner.Priority(s, ctx)
	}
	return base + ctx.PredictedRank(s)
}

// PickNode implements Strategy.
func (p Predictive) PickNode(s *rm.Submission, candidates []*cluster.Node, ctx *Context) *cluster.Node {
	var pick *cluster.Node
	if p.Inner != nil {
		pick = p.Inner.PickNode(s, candidates, ctx)
	} else {
		pick = firstFit(candidates)
	}
	if pick == nil || !ctx.cws.warmFor(s.Name) {
		return pick
	}
	best, bestSec := pick, 0.0
	if sec, ok := ctx.cws.predictor.Predict(s.Name, s.InputBytes, pick.Type.SpeedFactor); ok {
		bestSec = sec
	} else {
		return pick
	}
	for _, n := range candidates {
		if n == pick {
			continue
		}
		if sec, ok := ctx.cws.predictor.Predict(s.Name, s.InputBytes, n.Type.SpeedFactor); ok && sec < bestSec {
			best, bestSec = n, sec
		}
	}
	return best
}

// SetOverrunPolicy arms predicted-walltime enforcement: an attempt whose
// execution would exceed predicted × slack is killed at that budget and
// fails with a walltime-overrun error, which routes through the driving
// runner's recovery policy (see Bind) like any other failure — backoff,
// provenance retry annotation, graceful degradation. Each
// overrun of a task inflates its next budget by the inflation factor
// (budget = predicted × slack × inflation^priorOverruns), so even a model
// that underestimates by 10× converges to completion in a few retries
// instead of live-locking.
//
// Kills only engage while the model is warm for the task's name (see
// SetMinPredictionSamples); slack <= 0 disarms the policy, inflation
// values below 1 are treated as 1 (no growth).
func (c *CWS) SetOverrunPolicy(slack, inflation float64) {
	if inflation < 1 {
		inflation = 1
	}
	c.overrunSlack, c.overrunInfl = slack, inflation
}

// PredictionErrors returns the accumulated placement-time prediction
// accuracy: one (predicted, actual) pair per successful attempt that had a
// warm prediction when it was placed.
func (c *CWS) PredictionErrors() predict.Errors { return c.predErr }

// EnablePredictedBackfill wires the runtime predictor into the resource
// manager's EASY-style backfill (rm.TaskManager.SetDurationOracle): when
// the head of the queue cannot be placed, the manager reserves the node
// where capacity frees earliest, and shorter-predicted tasks may slot into
// the hole only if they finish before that shadow time — the "no
// hole-owner delay" invariant. The oracle answers only while the model is
// warm for a task's name, so a cold model reports no predictions and the
// manager's behavior stays bit-identical to the unreserved greedy pass.
func (c *CWS) EnablePredictedBackfill() {
	c.mgr.SetDurationOracle(func(s *rm.Submission, n *cluster.Node) (float64, bool) {
		if !c.warmFor(s.Name) {
			return 0, false
		}
		return c.predictor.Predict(s.Name, s.InputBytes, n.Type.SpeedFactor)
	})
}

// train is the provenance→predict observer (§3.4): installed on the
// provenance store at construction, it folds every successful attempt into
// the runtime and memory models as it is recorded.
func (c *CWS) train(rec *provenance.TaskRecord) {
	if rec.Failed {
		return
	}
	if c.memPred != nil {
		c.memPred.Observe(predict.Observation{TaskName: rec.Name, PeakMem: rec.PeakMem})
	}
	if c.predictor == nil {
		return
	}
	c.predictor.Observe(predict.Observation{
		TaskName:    rec.Name,
		InputBytes:  rec.InputBytes,
		RuntimeSec:  float64(rec.FinishedAt - rec.StartedAt),
		PeakMem:     rec.PeakMem,
		MachineName: rec.MachineType,
		SpeedFactor: rec.SpeedFactor,
	})
}
