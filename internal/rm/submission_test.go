package rm

import (
	"errors"
	"reflect"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/sim"
)

// heldExecutor queues every submission without running it, so a test can
// inspect and finish each attempt by hand.
type heldExecutor struct {
	eng  *sim.Engine
	held []*Submission
}

func (e *heldExecutor) Submit(s *Submission) { e.held = append(e.held, s) }
func (e *heldExecutor) Engine() *sim.Engine  { return e.eng }

// scribble sets every field of s to a value no attempt of the test's task
// holds, and fails if a field is left zero: a field added to Submission
// must be scribbled here, and so reset by StreamRunner.start.
func scribble(t *testing.T, s *Submission) {
	t.Helper()
	s.WorkflowID, s.TaskID, s.Attempt, s.Name = "stale", "stale", 99, "stale"
	s.Cores, s.GPUs, s.Mem, s.InputBytes = 99, 99, 99, 99
	s.Runtime = func(*cluster.Node) float64 { return 1 }
	s.Validate = func(*cluster.Node) error { return nil }
	s.Done = func(Result) {}
	s.submittedAt, s.placed, s.prioKey, s.prioGen = 99, true, 99, 99
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("scribble leaves Submission.%s zero", v.Type().Field(i).Name)
		}
	}
}

// sameSubmission reports whether a and b hold the same value in every
// field; func fields are equal only when both are nil.
func sameSubmission(a, b *Submission) bool {
	return reflect.DeepEqual(*a, *b) && a.Hooks == b.Hooks
}

// halfMemHook passes every callback through and, without a recovery
// policy, resubmits every failed attempt.
type halfMemHook struct{ SubmissionHooks }

func (halfMemHook) Backoff(sim.Time)     {}
func (halfMemHook) Resubmit(error) error { return nil }

// StreamRunner.start refills the pooled attempt's Submission in place. On
// the first attempt, and on a retry after the hook lowered Mem and the
// previous attempt's record was left holding stale values in every field,
// the Submission the hook sees and the one the executor gets must each
// equal a fresh literal: Mem back at the task's MemBytes, no Runtime,
// Validate or Done, and Hooks the attempt or the hook.
func TestStreamRunnerRefillsSubmission(t *testing.T) {
	w := dag.New("w")
	task := &dag.Task{ID: "a", Name: "tool", Cores: 2, GPUs: 1, MemBytes: 8, InputBytes: 3, NominalDur: 10}
	w.Add(task)
	x, err := dag.NewWorkflowExpander(w)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(n int, mem float64, hooks SubmissionHooks) *Submission {
		return &Submission{WorkflowID: "wf", TaskID: "a", Attempt: n, Name: "tool",
			Cores: 2, GPUs: 1, Mem: mem, InputBytes: 3, Hooks: hooks}
	}
	exec := &heldExecutor{eng: sim.NewEngine()}
	var hooks []AttemptHook
	sr := &StreamRunner{Manager: exec, Source: x, WorkflowID: "wf"}
	sr.Hook = func(s *Submission, _ *dag.Task, _, n int) AttemptHook {
		if _, ok := s.Hooks.(*attempt); !ok {
			t.Fatalf("attempt %d: hook sees Hooks %T, want the runner's *attempt", n, s.Hooks)
		}
		if want := fresh(n, 8, s.Hooks); !sameSubmission(s, want) {
			t.Fatalf("attempt %d: hook sees\n %+v\nwant\n %+v", n, *s, *want)
		}
		h := halfMemHook{s.Hooks}
		s.Mem /= 2
		hooks = append(hooks, h)
		return h
	}
	sr.Start()
	for n := 1; n <= 3; n++ {
		if len(exec.held) != 1 {
			t.Fatalf("attempt %d: %d submissions held, want 1", n, len(exec.held))
		}
		s := exec.held[0]
		exec.held = exec.held[:0]
		if want := fresh(n, 4, hooks[n-1]); !sameSubmission(s, want) {
			t.Fatalf("attempt %d: executor gets\n %+v\nwant\n %+v", n, *s, *want)
		}
		if n == 3 {
			s.Finish(Result{Submission: s})
			break
		}
		scribble(t, s)
		s.Finish(Result{Submission: s, Failed: true, Err: errors.New("oom")})
	}
	if st := sr.Stats(); st.Attempts != 3 || st.Failures != 2 || sr.Err() != nil {
		t.Fatalf("stats %+v, err %v; want 3 attempts, 2 failures and no error", st, sr.Err())
	}
}
