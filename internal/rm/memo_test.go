package rm

import (
	"strconv"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// passHook is an AttemptHook that only calls through to the runner.
type passHook struct{ SubmissionHooks }

func (passHook) Backoff(sim.Time)     {}
func (passHook) Resubmit(error) error { return nil }

// TestWarmRunnerSubmissionIDs drives one pooled runner through a warm
// session of RandomLayered workflows of varying width, all under one
// WorkflowID, with injected failures and retries. The submission-ID memo is
// addressed by insertion position, and one WorkflowID names a different
// shape every run, so each ID must still be WorkflowID + "/" + TaskID, with
// "#n" on the nth attempt.
func TestWarmRunnerSubmissionIDs(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 3, 8), nil)
	sr := &StreamRunner{Manager: m}
	const wfID = "tenant/wf"
	checked := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := randx.New(seed)
		w := dag.RandomLayered(rng, 4, 2+int(seed%5), dag.GenOpts{MeanDur: 60})
		fails := map[dag.TaskID]int{}
		for i, task := range w.Tasks() {
			if i%3 == int(seed%3) {
				fails[task.ID] = 1
			}
		}
		x, err := dag.NewWorkflowExpander(w)
		if err != nil {
			t.Fatal(err)
		}
		sr.Reset()
		sr.Source, sr.WorkflowID = x, wfID
		sr.Retry = &fault.RetryPolicy{MaxAttempts: 3, BaseDelaySec: 5, Multiplier: 2}
		sr.FailPlan = failPlan(w, fails)
		sr.Hook = func(s *Submission, task *dag.Task, idx, n int) AttemptHook {
			want := wfID + "/" + string(task.ID)
			if n > 1 {
				want += "#" + strconv.Itoa(n)
			}
			if s.ID != want {
				t.Errorf("seed %d: attempt %d of %s (index %d) submitted as %q, want %q",
					seed, n, task.ID, idx, s.ID, want)
			}
			checked++
			return passHook{s.Hooks}
		}
		sr.Run()
		if st := sr.Stats(); st.Retries == 0 || st.TerminalFailures != 0 {
			t.Fatalf("seed %d: stats %+v, want retries and no terminal failures", seed, st)
		}
	}
	if checked == 0 {
		t.Fatal("no submissions checked")
	}
}
