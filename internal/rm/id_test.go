package rm

import (
	"strconv"
	"strings"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
	"hhcw/internal/steady"
)

// passHook is an AttemptHook that only calls through to the runner.
type passHook struct{ SubmissionHooks }

func (passHook) Backoff(sim.Time)     {}
func (passHook) Resubmit(error) error { return nil }

func TestSubmissionID(t *testing.T) {
	for _, c := range []struct {
		s    Submission
		want string
	}{
		{Submission{WorkflowID: "wf", TaskID: "a"}, "wf/a"},
		{Submission{WorkflowID: "wf", TaskID: "a", Attempt: 1}, "wf/a"},
		{Submission{WorkflowID: "wf", TaskID: "a", Attempt: 2}, "wf/a#2"},
		{Submission{WorkflowID: "t/wf", TaskID: "x#1", Attempt: 10}, "t/wf/x#1#10"},
		{Submission{TaskID: "probe"}, "/probe"},
	} {
		if got := c.s.ID(); got != c.want {
			t.Errorf("%+v: ID() = %q, want %q", c.s, got, c.want)
		}
	}
}

// FuzzSubmissionIDOrder checks IDLess against the order of the rendered
// IDs, including IDs longer than its stack buffers.
func FuzzSubmissionIDOrder(f *testing.F) {
	f.Add("wf", "a", 9, "wf", "a", 10) // "#10" < "#9"
	f.Add("wf", "a", 11, "wf", "a", 9)
	f.Add("wf", "a", 1, "wf", "a", 2)
	f.Add("", "a", 1, "wf", "a", 1)       // empty WorkflowID
	f.Add("wf", "a/b", 1, "wf/a", "b", 2) // TaskID with "/"
	f.Add("wf", "a#2", 1, "wf", "a", 2)   // TaskID with "#"
	f.Add("wf", "x", 1, "wf-2", "x", 1)   // one WorkflowID a prefix of another
	f.Add("tenant/wf", "t", 3, "tenant", "wf/t", 3)
	f.Fuzz(func(t *testing.T, wa, ta string, na int, wb, tb string, nb int) {
		a := &Submission{WorkflowID: wa, TaskID: dag.TaskID(ta), Attempt: na}
		b := &Submission{WorkflowID: wb, TaskID: dag.TaskID(tb), Attempt: nb}
		if got, want := IDLess(a, b), a.ID() < b.ID(); got != want {
			t.Fatalf("IDLess(%q, %q) = %v, want %v", a.ID(), b.ID(), got, want)
		}
		if got, want := CompareID(a, b), strings.Compare(a.ID(), b.ID()); got != want {
			t.Fatalf("CompareID(%q, %q) = %d, want %d", a.ID(), b.ID(), got, want)
		}
	})
}

// TestWarmRunnerSubmissionIDs drives one pooled runner through a warm
// session of RandomLayered workflows of varying width, all under one
// WorkflowID, with injected failures and retries. Every attempt's
// submission must carry its attempt number and render as WorkflowID + "/" +
// TaskID, with "#n" on the nth attempt, however the pooled attempt records
// were used before.
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
			if s.ID() != want || s.Attempt != n {
				t.Errorf("seed %d: attempt %d of %s (index %d) submitted as %q attempt %d, want %q",
					seed, n, task.ID, idx, s.ID(), s.Attempt, want)
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

// A warm runner replaying a workflow under a fresh WorkflowID, as the
// service does for every arrival, allocates nothing: no submission ID is
// built unless something reads it.
func TestFreshWorkflowIDRunAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 4, 8), nil)
	w := dag.MontageLike(randx.New(1), 16, dag.GenOpts{MeanDur: 60})
	x := &dag.WorkflowExpander{}
	sr := &StreamRunner{Manager: m}
	// Built ahead, so that the runs measured allocate none of them; the
	// warm-up runs take a few, and each run's ID differs from the last.
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = "tenant/wf-" + strconv.Itoa(i)
	}
	next := 0
	run := func() {
		if err := x.Reset(w); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		sr.Reset()
		sr.Source, sr.WorkflowID = x, ids[next%len(ids)]
		next++
		if sr.Run() <= 0 {
			t.Fatal("run did not finish")
		}
	}
	run() // warm the pools
	if allocs := steady.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("%v allocs per run of a %d-task workflow under a fresh WorkflowID, want 0", allocs, w.Len())
	}
}
