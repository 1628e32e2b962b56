package rm

import (
	"fmt"
	"strings"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/sim"
)

// logHook is an AttemptHook that logs every call and calls through to the
// runner's own callbacks. Without a recovery policy it allows budget
// immediate resubmissions per task, then fails the run.
type logHook struct {
	inner  SubmissionHooks
	id     string
	n      int
	budget int
	log    *[]string
}

func (h *logHook) RuntimeOn(n *cluster.Node) float64 { return h.inner.RuntimeOn(n) + 1 }

func (h *logHook) ValidateOn(n *cluster.Node) error {
	if err := h.inner.ValidateOn(n); err != nil {
		return fmt.Errorf("hook: %w", err)
	}
	return nil
}

func (h *logHook) Done(r Result) {
	*h.log = append(*h.log, fmt.Sprintf("done %s failed=%v at %g", h.id, r.Failed, float64(r.FinishedAt)))
	h.inner.Done(r)
}

func (h *logHook) Backoff(d sim.Time) {
	*h.log = append(*h.log, fmt.Sprintf("backoff %s %g", h.id, float64(d)))
}

func (h *logHook) Resubmit(cause error) error {
	*h.log = append(*h.log, "resubmit? "+h.id)
	if h.n <= h.budget {
		return nil
	}
	return fmt.Errorf("%s gave up: %w", h.id, cause)
}

func hookedRunner(m *TaskManager, budget int, log *[]string) *StreamRunner {
	sr := &StreamRunner{Manager: m}
	sr.Hook = func(s *Submission, t *dag.Task, idx, n int) AttemptHook {
		*log = append(*log, fmt.Sprintf("submit %s mem=%g", s.ID(), s.Mem))
		s.Mem /= 2
		return &logHook{inner: s.Hooks, id: s.ID(), n: n, budget: budget, log: log}
	}
	return sr
}

// With a recovery policy the hook wraps every attempt (its runtime and
// validation run, its Done sees each result before the runner) and is told
// each scheduled retry's backoff.
func TestStreamRunnerHookWithPolicy(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 8), nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 10, MemBytes: 8})
	var log []string
	sr := hookedRunner(m, 0, &log)
	sr.Retry = &fault.RetryPolicy{MaxAttempts: 3, BaseDelaySec: 5, Multiplier: 2}
	sr.FailPlan = failPlan(w, map[dag.TaskID]int{"a": 1})
	ms, results := runWorkflow(t, sr, w)
	// 11s failed attempt (hook adds 1s), 5s backoff, 11s clean attempt.
	if ms != 27 {
		t.Fatalf("makespan = %v, want 27", ms)
	}
	want := []string{
		"submit w/a mem=8", "done w/a failed=true at 11", "backoff w/a 5",
		"submit w/a#2 mem=8", "done w/a#2 failed=false at 27",
	}
	if strings.Join(log, "|") != strings.Join(want, "|") {
		t.Fatalf("hook calls:\n  %s\nwant\n  %s", strings.Join(log, "\n  "), strings.Join(want, "\n  "))
	}
	if err := results["a"].Err; err != nil {
		t.Fatalf("final attempt failed: %v", err)
	}
	if st := sr.Stats(); st.Attempts != 2 || st.Failures != 1 || st.Retries != 1 || st.BackoffSec != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// Without a policy the hook decides: allowed resubmissions happen at the
// failure's own timestamp and are not counted as retries; a refusal fails
// the run — Err reports it, OnComplete fires once, and nothing more is
// submitted while the attempts in flight drain.
func TestStreamRunnerHookWithoutPolicy(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 2, 8), nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", NominalDur: 30})
	w.Add(&dag.Task{ID: "c", NominalDur: 10, Deps: []dag.TaskID{"b"}})
	var log []string
	sr := hookedRunner(m, 1, &log)
	sr.FailPlan = failPlan(w, map[dag.TaskID]int{"a": 9})
	completions := 0
	sr.OnComplete = func() { completions++ }
	ms, results := runWorkflow(t, sr, w)
	if ms != 0 {
		t.Fatalf("failed run returned makespan %v, want 0", ms)
	}
	if err := sr.Err(); err == nil || !strings.Contains(err.Error(), "w/a#2 gave up: hook: rm: injected") {
		t.Fatalf("Err = %v, want the hook's refusal wrapping the injected failure", err)
	}
	if completions != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", completions)
	}
	if _, ran := results["c"]; ran {
		t.Fatal("c was submitted after the run failed")
	}
	if results["b"].Failed {
		t.Fatal("b, in flight when the run failed, did not drain")
	}
	// a fails at 11, is resubmitted at once, fails again at 22; b drains at 31.
	want := []string{
		"submit w/a mem=0", "submit w/b mem=0",
		"done w/a failed=true at 11", "resubmit? w/a", "submit w/a#2 mem=0",
		"done w/a#2 failed=true at 22", "resubmit? w/a#2",
		"done w/b failed=false at 31",
	}
	if strings.Join(log, "|") != strings.Join(want, "|") {
		t.Fatalf("hook calls:\n  %s\nwant\n  %s", strings.Join(log, "\n  "), strings.Join(want, "\n  "))
	}
	if st := sr.Stats(); st.Failures != 2 || st.Retries != 0 || st.BackoffSec != 0 {
		t.Fatalf("stats = %+v, want 2 failures and no counted retry", st)
	}
}

// A resubmission the hook allows is submitted inside the failed attempt's
// completion, not from a later event at the same timestamp: it queues ahead
// of work that other completions at that instant make ready.
func TestStreamRunnerHookResubmitsSynchronously(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 2), nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", NominalDur: 10})
	w.Add(&dag.Task{ID: "c", NominalDur: 4, Cores: 2, Deps: []dag.TaskID{"b"}})
	var log []string
	sr := hookedRunner(m, 1, &log)
	sr.FailPlan = failPlan(w, map[dag.TaskID]int{"a": 1})
	_, results := runWorkflow(t, sr, w)
	// a and b end at 11 (the hook adds 1s); a's retry queues before c, takes
	// one of the two cores, and c waits for it: 11–22, then c 22–27.
	if got := results["c"].StartedAt; got != 22 {
		t.Fatalf("c started at %v, want 22 (behind a's immediate resubmission)", got)
	}
}

// OnComplete of a completed run may Reset the runner and start it afresh:
// the runner touches none of its state after the callback.
func TestStreamRunnerRestartFromOnComplete(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 8), nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", NominalDur: 10, Deps: []dag.TaskID{"a"}})
	var x dag.WorkflowExpander
	sr := &StreamRunner{Manager: m}
	var finishes []float64
	var start func()
	start = func() {
		if err := x.Reset(w); err != nil {
			t.Fatal(err)
		}
		sr.Source, sr.WorkflowID = &x, fmt.Sprintf("w%d", len(finishes))
		sr.OnComplete = func() {
			finishes = append(finishes, float64(eng.Now()))
			if len(finishes) < 3 {
				sr.Reset()
				start()
			}
		}
		sr.Start()
	}
	start()
	eng.Run()
	if fmt.Sprint(finishes) != "[20 40 60]" {
		t.Fatalf("completions at %v, want [20 40 60]", finishes)
	}
}

// An empty expansion completes the moment it starts: OnComplete fires once
// and the makespan is 0, even when the engine's clock is already past 0.
func TestStreamRunnerEmptyExpansionCompletes(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 8), nil)
	eng.After(100, func() {})
	eng.Run()
	x, err := dag.NewWorkflowExpander(dag.New("empty"))
	if err != nil {
		t.Fatal(err)
	}
	completions := 0
	sr := &StreamRunner{Manager: m, Source: x, WorkflowID: "empty", OnComplete: func() { completions++ }}
	if got := sr.Run(); got != 0 {
		t.Fatalf("makespan = %v, want 0", got)
	}
	if completions != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", completions)
	}
}
