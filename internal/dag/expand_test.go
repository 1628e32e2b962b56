package dag

import (
	"testing"

	"hhcw/internal/randx"
	"hhcw/internal/steady"
)

// diamond builds a -> {b, c} -> d with an extra root e -> d.
func diamondWF(t *testing.T) *Workflow {
	t.Helper()
	w := New("diamond")
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		w.Add(&Task{ID: TaskID(id), NominalDur: 1})
	}
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}, {"e", "d"}} {
		if err := w.AddEdge(TaskID(e[0]), TaskID(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func drainReady(x *WorkflowExpander) []TaskID {
	var out []TaskID
	for {
		t, _, ok := x.Next()
		if !ok {
			return out
		}
		out = append(out, t.ID)
	}
}

func sameIDs(a, b []TaskID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The expander must replay the eager submission order exactly: roots in
// insertion order, then newly ready successors in edge-creation order per
// completion.
func TestWorkflowExpanderOrder(t *testing.T) {
	w := diamondWF(t)
	x, err := NewWorkflowExpander(w)
	if err != nil {
		t.Fatal(err)
	}
	if x.Name() != "diamond" || x.Total() != 5 {
		t.Fatalf("Name/Total: %q/%d", x.Name(), x.Total())
	}
	if got := drainReady(x); !sameIDs(got, []TaskID{"a", "e"}) {
		t.Fatalf("roots: %v", got)
	}
	// Insertion indices key the fault plan; verify they track w.Tasks() order.
	x2, _ := NewWorkflowExpander(diamondWF(t))
	if _, idx, _ := x2.Next(); idx != 0 {
		t.Fatalf("root a index = %d, want 0", idx)
	}
	if _, idx, _ := x2.Next(); idx != 4 {
		t.Fatalf("root e index = %d, want 4", idx)
	}

	x.TaskDone("a")
	if got := drainReady(x); !sameIDs(got, []TaskID{"b", "c"}) {
		t.Fatalf("after a: %v", got)
	}
	x.TaskDone("e")
	if got := drainReady(x); len(got) != 0 {
		t.Fatalf("after e (d still blocked): %v", got)
	}
	x.TaskDone("b")
	x.TaskDone("c")
	if got := drainReady(x); !sameIDs(got, []TaskID{"d"}) {
		t.Fatalf("after b,c: %v", got)
	}
	x.TaskDone("d")
	if got := drainReady(x); len(got) != 0 {
		t.Fatalf("after all: %v", got)
	}
}

// A terminal failure writes off all transitive descendants exactly once,
// and they never surface from Next even when other parents complete.
func TestWorkflowExpanderFailureSkips(t *testing.T) {
	w := diamondWF(t)
	x, err := NewWorkflowExpander(w)
	if err != nil {
		t.Fatal(err)
	}
	drainReady(x) // a, e
	if n := x.TaskFailed("a"); n != 3 {
		t.Fatalf("TaskFailed(a) skipped %d, want 3 (b, c, d)", n)
	}
	// e still completes; d must not become ready (its ancestor failed).
	x.TaskDone("e")
	if got := drainReady(x); len(got) != 0 {
		t.Fatalf("skipped task surfaced: %v", got)
	}
	// Failing again finds nothing new to skip.
	if n := x.TaskFailed("a"); n != 0 {
		t.Fatalf("second TaskFailed(a) skipped %d, want 0", n)
	}
}

func TestWorkflowExpanderValidates(t *testing.T) {
	w := New("cyclic")
	w.Add(&Task{ID: "a", NominalDur: 1})
	w.Add(&Task{ID: "b", NominalDur: 1})
	if err := w.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddEdge("b", "a"); err == nil {
		// Some DAG impls reject at AddEdge; if not, Validate must.
		if _, err := NewWorkflowExpander(w); err == nil {
			t.Fatal("cyclic workflow accepted")
		}
	}
}

// A warm WorkflowExpander replay — Reset onto an already validated workflow
// plus a full drain — refills its tables in place and allocates nothing.
func TestWorkflowExpanderWarmReplayAllocs(t *testing.T) {
	w := MontageLike(randx.New(1), 16, GenOpts{})
	var x WorkflowExpander
	done := make([]TaskID, 0, w.Len())
	replay := func() {
		if err := x.Reset(w); err != nil {
			t.Fatal(err)
		}
		if done = completeInOrder(&x, done); len(done) != w.Len() {
			t.Fatalf("replay emitted %d of %d tasks", len(done), w.Len())
		}
	}
	replay() // cold: validates the workflow and sizes the tables
	if allocs := steady.AllocsPerRun(100, replay); allocs != 0 {
		t.Fatalf("warm replay allocates %v times, want 0", allocs)
	}
}

// completeInOrder drains x, completing every emitted task in emission order,
// and returns the emitted IDs in done's reused storage.
func completeInOrder(x *WorkflowExpander, done []TaskID) []TaskID {
	done = done[:0]
	for k := 0; ; k++ {
		for task, _, ok := x.Next(); ok; task, _, ok = x.Next() {
			done = append(done, task.ID)
		}
		if k == len(done) {
			return done
		}
		x.TaskDone(done[k])
	}
}
