package core

import (
	"testing"

	"hhcw/internal/cwsi"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/steady"
)

// TestWarmStormRunAllocs locks the allocation floor of a warm storm run: a
// reused session replays one storm-profile montage seed (node crashes,
// reclaims, injected transient failures, retries) and may allocate no more
// per run than the ceiling below (81 on FIFO and 112 on CWS-rank when every
// failure built its text with fmt.Errorf and every fault timer was a fresh
// closure). Failure causes are typed values, fault
// timers fire through handlers bound once, node-down handling works in
// manager scratch and the session re-arms its injector and task-failure plan
// in place, so what remains is the run's Result, the failure causes
// themselves and, on the CWS path, the workflow registration and the text
// of each failed provenance record. The CWS-rank ceiling was 28 while each
// registration allocated an output-location slice and each Bind rendered
// the retry-policy label afresh; the label is now rendered once per policy.
// It was 22 while each registration allocated the workflow's scheduler
// state; Reset now keeps the states for the next run's registrations. It was
// 21 while each registration allocated the workflow's rank table; a pooled
// state now keeps its capacity.
func TestWarmStormRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	for _, tc := range []struct {
		name string
		env  *KubernetesEnv
		max  float64
	}{
		{"fifo", &KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: fault.Storm()}, 8},
		{"cws-rank", &KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}, Faults: fault.Storm()}, 20},
	} {
		sess, err := tc.env.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		w, _ := sessionTestWorkflow(4)
		rng := new(randx.Source)
		var res *Result
		run := func() {
			if res, err = sess.RunSeeded(w, rng.Reseed(4)); err != nil {
				t.Fatal(err)
			}
		}
		allocs := steady.AllocsPerRun(20, run)
		if res.FailedAttempts == 0 || res.NodeFailures == 0 {
			t.Fatalf("%s: storm run failed no attempt or no node (%+v); the lock would be vacuous", tc.name, res)
		}
		if allocs > tc.max {
			t.Errorf("%s: warm storm run allocates %.1f objects, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}
