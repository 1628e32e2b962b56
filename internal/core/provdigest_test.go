package core

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// Frozen provenance digests: every task record a CWS run writes (order,
// attempt numbers, timestamps, placements, error strings, retry
// annotations) and the PROV-JSON export, hashed byte for byte. The
// fingerprint goldens pin only aggregates; these pin the per-attempt record
// stream itself, so a change to how attempts are driven, retried or
// recorded shows here first.
const (
	// montage-8 on 4×8 cores, CWS rank, storm profile, seeds 1..4.
	goldenProvCWSStorm = "9d01df70b8af68aa244edcf14a5f6c26c5da2d4d8ce28085d6e9ee2bd9239556"
	// rnaseq-12 on the 2-per-type heterogeneous cluster, Lotaru prediction
	// loop (memory right-sizing, overrun kills, recovery policy), seeds 1..6.
	goldenProvLotaru = "eb31894c948e51b2536eb017cda8c1a099eb1a892b2b72a1b6a1cbdab609ef28"
	// The same prediction loop under the storm profile, seeds 1..4: overrun
	// kills, OOM kills and injected failures on one attempt stream.
	goldenProvLotaruStorm = "9a39bbbd52a16bfbb52d40db73b4f38ea387c60bccf4bff90d8c3aa8ee6c4ffb"
)

// provDigest folds a store's records and PROV export into one hash, and
// counts the records whose error contains each of the given fragments.
func provDigest(t *testing.T, h interface{ Write([]byte) (int, error) }, st *provenance.Store, counts map[string]int) {
	t.Helper()
	for _, r := range st.All() {
		fmt.Fprintf(h, "%+v\n", r)
		for frag := range counts {
			if strings.Contains(r.Error, frag) {
				counts[frag]++
			}
		}
		if r.RetryPolicy != "" {
			counts["<annotated>"]++
		}
	}
	doc, err := st.ExportPROV()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(doc)
}

// checkRetryNotes asserts what a retry note means: every record with a
// backoff delay is a failed attempt, and its task's next attempt starts no
// earlier than the failure plus that delay.
func checkRetryNotes(t *testing.T, st *provenance.Store) (notes int) {
	t.Helper()
	type attemptKey struct {
		wf      string
		task    dag.TaskID
		attempt int
	}
	recs := st.All()
	started := make(map[attemptKey]sim.Time, len(recs))
	for _, r := range recs {
		started[attemptKey{r.WorkflowID, r.TaskID, r.Attempt}] = r.StartedAt
	}
	for _, r := range recs {
		if r.RetryDelaySec <= 0 {
			continue
		}
		notes++
		if !r.Failed {
			t.Errorf("%s/%s#%d: retry note on a successful attempt", r.WorkflowID, r.TaskID, r.Attempt)
		}
		next, ok := started[attemptKey{r.WorkflowID, r.TaskID, r.Attempt + 1}]
		if !ok {
			t.Errorf("%s/%s#%d: retry noted but no attempt %d recorded", r.WorkflowID, r.TaskID, r.Attempt, r.Attempt+1)
		} else if due := r.FinishedAt + sim.Time(r.RetryDelaySec); next < due {
			t.Errorf("%s/%s#%d: attempt %d started at %v, before the backoff ended at %v",
				r.WorkflowID, r.TaskID, r.Attempt, r.Attempt+1, next, due)
		}
	}
	return notes
}

// runProvDigest digests the provenance of each seed's run and checks its
// retry notes (see checkRetryNotes), counting them as "<delayed>".
func runProvDigest(t *testing.T, env *KubernetesEnv, gen func(*randx.Source) *dag.Workflow, seeds int, counts map[string]int) string {
	t.Helper()
	h := sha256.New()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := randx.New(seed)
		w := gen(rng)
		res, err := Run(env, w, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st, ok := res.Provenance.(*provenance.Store)
		if !ok {
			t.Fatalf("seed %d: no provenance store", seed)
		}
		provDigest(t, h, st, counts)
		counts["<delayed>"] += checkRetryNotes(t, st)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestProvenanceDigestCWSStorm(t *testing.T) {
	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	env := &KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}, Faults: storm}
	opts := dag.GenOpts{MeanDur: 300, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	// The digest hashes error text; it covers both failure texts of the
	// storm (injected failures and node failures) only if both occur.
	counts := map[string]int{"injected": 0, "node ": 0}
	got := runProvDigest(t, env, func(r *randx.Source) *dag.Workflow { return dag.MontageLike(r, 8, opts) }, 4, counts)
	if counts["injected"] == 0 || counts["node "] == 0 || counts["<annotated>"] == 0 || counts["<delayed>"] == 0 {
		t.Fatalf("storm runs injected no failures, failed no node or annotated no delayed retry (%v); the digest would be vacuous", counts)
	}
	if got != goldenProvCWSStorm {
		t.Errorf("provenance digest = %s, want golden %s", got, goldenProvCWSStorm)
	}
}

func TestProvenanceDigestLotaru(t *testing.T) {
	env := &KubernetesEnv{Nodes: 2, Heterogeneous: true, Strategy: cwsi.Baseline{}, Predict: "lotaru"}
	opts := dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	counts := map[string]int{"OOM": 0, "walltime-overrun": 0}
	got := runProvDigest(t, env, func(r *randx.Source) *dag.Workflow { return dag.RNASeqLike(r, 12, opts) }, 6, counts)
	if counts["OOM"] == 0 || counts["walltime-overrun"] == 0 {
		t.Fatalf("prediction runs saw no OOM retry or no overrun kill (%v); the digest would be vacuous", counts)
	}
	if got != goldenProvLotaru {
		t.Errorf("provenance digest = %s, want golden %s", got, goldenProvLotaru)
	}

	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	env.Faults = storm
	counts = map[string]int{"OOM": 0, "walltime-overrun": 0, "injected": 0}
	got = runProvDigest(t, env, func(r *randx.Source) *dag.Workflow { return dag.RNASeqLike(r, 12, opts) }, 4, counts)
	if counts["injected"] == 0 || counts["<annotated>"] == 0 {
		t.Fatalf("storm prediction runs injected no failures or annotated no retries (%v)", counts)
	}
	if got != goldenProvLotaruStorm {
		t.Errorf("storm provenance digest = %s, want golden %s", got, goldenProvLotaruStorm)
	}
}
