package dag

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fuzzIDs is the ID alphabet of FuzzWorkflowMatchesReference. Only the first
// len-1 are ever added, so the last is a dep that never resolves.
var fuzzIDs = []TaskID{"a", "b", "c", "d", "e", "f", "ghost"}

// byteReader hands out input bytes, then zeros once they run out.
type byteReader struct {
	b []byte
	n int
}

func (r *byteReader) more() bool { return r.n < len(r.b) }

func (r *byteReader) next() int {
	if r.n >= len(r.b) {
		return 0
	}
	r.n++
	return int(r.b[r.n-1])
}

// FuzzWorkflowMatchesReference decodes build into a sequence of Add, AddEdge
// and mid-construction reads, applies it to a Workflow and to the map-based
// reference in reference_test.go, and requires every structural read to
// agree: Validate errors, topological order, roots, leaves, successor order,
// ranks, critical path, levels, descendants, and the WorkflowExpander's
// emission order under the completion schedule decoded from sched.
//
// Encoding of build, one op at a time: op%4 of 0 or 1 adds task op/4%6 (a
// repeated ID is skipped) with next%4 deps, each next%7 into fuzzIDs, and
// duration next%4/2; 2 adds the edge next%6 → next%6; 3 compares Validate
// and TopoOrder on the partial workflow. Each byte of sched reports the
// pending task at byte/2 % pending as done (even) or failed (odd).
func FuzzWorkflowMatchesReference(f *testing.F) {
	// Seeds, in the encoding the ops below spell out.
	a, b, c, d, e, ghost := 0, 1, 2, 3, 4, 6
	chain := ops(add(a, 1), add(b, 1, a), add(c, 2, b))
	f.Add(chain, []byte{0, 0, 0})
	f.Add(chain, []byte{1})                                                  // the root fails
	f.Add(ops(add(a, 1, b), add(b, 2), add(c, 1, a, b)), []byte{0, 0, 0})    // forward references
	f.Add(ops(add(a, 1), add(b, 1, ghost)), []byte{0})                       // unknown dep
	f.Add(ops(add(a, 1), add(b, 1, b)), []byte{0})                           // self dep
	f.Add(ops(add(a, 1), add(b, 1, a, a), add(c, 2, b, a, b)), []byte{0, 2}) // duplicate deps
	f.Add(ops(add(a, 1), add(b, 1), add(c, 1, a), addEdge(a, b), add(d, 2, a), addEdge(b, d), add(e, 3, c)),
		[]byte{0, 0, 2, 0, 0}) // AddEdge between later Adds
	f.Add(ops(add(a, 1), read(), add(b, 2, a), add(c, 1), read(), addEdge(b, c), read(), addEdge(a, c), add(d, 1, c), read()),
		[]byte{0, 0, 0}) // reads between builds
	f.Add(ops(add(a, 1), add(b, 2, a), add(c, 2, a), add(d, 1, b, c), add(e, 0)),
		[]byte{0, 3, 0, 0, 0}) // diamond with a failed branch, equal ranks
	f.Add(ops(add(a, 1), add(b, 1, a), addEdge(b, a)), []byte{}) // AddEdge closing a cycle
	f.Fuzz(func(t *testing.T, build, sched []byte) {
		w, ref := New("fz"), newRef("fz")
		r := &byteReader{b: build}
		for r.more() {
			switch op := r.next(); op % 4 {
			case 0, 1:
				id := fuzzIDs[op/4%6]
				deps := make([]TaskID, r.next()%4)
				for k := range deps {
					deps[k] = fuzzIDs[r.next()%7]
				}
				dur := float64(r.next()%4) / 2
				if ref.tasks[id] != nil {
					continue
				}
				w.Add(&Task{ID: id, NominalDur: dur, Deps: deps})
				ref.Add(&Task{ID: id, NominalDur: dur, Deps: append([]TaskID(nil), deps...)})
			case 2:
				from, to := fuzzIDs[r.next()%6], fuzzIDs[r.next()%6]
				checkErr(t, "AddEdge", w.AddEdge(from, to), ref.AddEdge(from, to))
			case 3:
				checkErr(t, "Validate (partial)", w.Validate(), ref.Validate())
				checkTopo(t, w, ref)
			}
		}
		checkStructure(t, w, ref)
		if err := w.Validate(); err != nil {
			return
		}
		// Run the schedule twice through one expander: the second pass is
		// a warm replay over refilled state.
		var x WorkflowExpander
		for pass := 0; pass < 2; pass++ {
			if err := x.Reset(w); err != nil {
				t.Fatal(err)
			}
			checkReplay(t, &x, newRefExpander(ref), sched)
		}
	})
}

func checkErr(t *testing.T, what string, got, want error) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: error %v, reference %v", what, got, want)
	}
}

func taskIDs(ts []*Task) []TaskID {
	out := make([]TaskID, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}

// children returns the tasks in the successor list of the task with the
// given ID, which must be in w.
func children(w *Workflow, id TaskID) []*Task {
	var out []*Task
	for _, c := range w.successors(w.index[id]) {
		out = append(out, w.list[c])
	}
	return out
}

func sameOrder(t *testing.T, what string, got, want []TaskID) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %v, reference %v", what, got, want)
	}
}

func checkTopo(t *testing.T, w *Workflow, ref *refWorkflow) {
	t.Helper()
	got, err := w.TopoOrder()
	want, werr := ref.TopoOrder()
	checkErr(t, "TopoOrder", err, werr)
	sameOrder(t, "TopoOrder", taskIDs(got), taskIDs(want))
}

func checkStructure(t *testing.T, w *Workflow, ref *refWorkflow) {
	t.Helper()
	checkErr(t, "Validate", w.Validate(), ref.Validate())
	checkTopo(t, w, ref)
	sameOrder(t, "Tasks", taskIDs(w.Tasks()), ref.order)
	sameOrder(t, "Roots", taskIDs(w.Roots()), taskIDs(ref.Roots()))
	sameOrder(t, "Leaves", taskIDs(w.Leaves()), taskIDs(ref.Leaves()))
	for _, id := range fuzzIDs {
		if ref.tasks[id] == nil {
			continue
		}
		sameOrder(t, "children("+string(id)+")", taskIDs(children(w, id)), taskIDs(ref.Children(id)))
	}
	if ref.Validate() != nil {
		return
	}
	ranks, want := w.UpwardRanks(nil, NominalDur), ref.UpwardRanks(NominalDur)
	for i, task := range w.Tasks() {
		if math.Float64bits(ranks[i]) != math.Float64bits(want[task.ID]) {
			t.Fatalf("UpwardRanks[%s] = %v, reference %v", task.ID, ranks[i], want[task.ID])
		}
	}
	cp, path := w.CriticalPath(NominalDur)
	wcp, wpath := ref.CriticalPath(NominalDur)
	if math.Float64bits(cp) != math.Float64bits(wcp) {
		t.Fatalf("CriticalPath = %v, reference %v", cp, wcp)
	}
	sameOrder(t, "CriticalPath", path, wpath)
}

// checkReplay drives x and the reference expander through the same
// completion schedule and requires identical emissions and skip counts.
func checkReplay(t *testing.T, x *WorkflowExpander, ref *refExpander, sched []byte) {
	t.Helper()
	r := &byteReader{b: sched}
	var pending []TaskID
	for {
		for {
			task, idx, ok := x.Next()
			wtask, widx, wok := ref.Next()
			if ok != wok || (ok && (task.ID != wtask.ID || idx != widx)) {
				t.Fatalf("Next: (%v, %d, %v), reference (%v, %d, %v)", task, idx, ok, wtask, widx, wok)
			}
			if !ok {
				break
			}
			pending = append(pending, task.ID)
		}
		if len(pending) == 0 {
			return
		}
		b := r.next()
		k := b / 2 % len(pending)
		id := pending[k]
		pending = append(pending[:k], pending[k+1:]...)
		if b%2 == 0 {
			x.TaskDone(id)
			ref.TaskDone(id)
		} else if got, want := x.TaskFailed(id), ref.TaskFailed(id); got != want {
			t.Fatalf("TaskFailed(%s) skipped %d, reference %d", id, got, want)
		}
	}
}

// Seed builders for FuzzWorkflowMatchesReference.

func ops(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// add encodes adding fuzzIDs[id] with duration dur/2 and the given deps.
func add(id, dur int, deps ...int) []byte {
	out := []byte{byte(4 * id), byte(len(deps))}
	for _, d := range deps {
		out = append(out, byte(d))
	}
	return append(out, byte(dur))
}

func addEdge(from, to int) []byte { return []byte{2, byte(from), byte(to)} }

func read() []byte { return []byte{3} }
