package dag

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hhcw/internal/randx"
)

func lin(ids ...string) *Workflow {
	w := New("lin")
	var prev TaskID
	for _, id := range ids {
		var deps []TaskID
		if prev != "" {
			deps = []TaskID{prev}
		}
		w.Add(&Task{ID: TaskID(id), NominalDur: 1, Deps: deps})
		prev = TaskID(id)
	}
	return w
}

func TestAddDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	w := New("w")
	w.Add(&Task{ID: "a"})
	w.Add(&Task{ID: "a"})
}

func TestAddEmptyIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty ID did not panic")
		}
	}()
	New("w").Add(&Task{})
}

func TestAddDefaultsCores(t *testing.T) {
	w := New("w")
	task := w.Add(&Task{ID: "a"})
	if task.Cores != 1 {
		t.Fatalf("Cores = %d, want 1", task.Cores)
	}
}

func TestValidateUnknownDep(t *testing.T) {
	w := New("w")
	w.Add(&Task{ID: "a", Deps: []TaskID{"ghost"}})
	if err := w.Validate(); err == nil {
		t.Fatal("unknown dep passed validation")
	}
}

func TestValidateCycle(t *testing.T) {
	w := New("w")
	w.Add(&Task{ID: "a", Deps: []TaskID{"b"}})
	w.Add(&Task{ID: "b", Deps: []TaskID{"a"}})
	if err := w.Validate(); err == nil {
		t.Fatal("cycle passed validation")
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	rng := randx.New(1)
	w := RandomLayered(rng, 5, 6, GenOpts{})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	topo, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[TaskID]int{}
	for i, task := range topo {
		pos[task.ID] = i
	}
	for _, task := range w.Tasks() {
		for _, d := range task.Deps {
			if pos[d] >= pos[task.ID] {
				t.Fatalf("dep %s after %s in topo order", d, task.ID)
			}
		}
	}
}

func TestRootsLeavesChildrenParents(t *testing.T) {
	w := Diamond(randx.New(2), GenOpts{})
	if got := len(w.Roots()); got != 1 {
		t.Fatalf("roots = %d, want 1", got)
	}
	if got := len(w.Leaves()); got != 1 {
		t.Fatalf("leaves = %d, want 1", got)
	}
	if got := len(children(w, "src")); got != 2 {
		t.Fatalf("children(src) = %d, want 2", got)
	}
	if got := len(w.Task("sink").Deps); got != 2 {
		t.Fatalf("parents(sink) = %d, want 2", got)
	}
	if w.EdgeCount() != 4 {
		t.Fatalf("EdgeCount = %d, want 4", w.EdgeCount())
	}
}

func TestCriticalPathChain(t *testing.T) {
	w := lin("a", "b", "c")
	length, path := w.CriticalPath(NominalDur)
	if length != 3 {
		t.Fatalf("critical path length = %v, want 3", length)
	}
	if len(path) != 3 || path[0] != "a" || path[2] != "c" {
		t.Fatalf("path = %v", path)
	}
}

func TestCriticalPathPicksLongerBranch(t *testing.T) {
	w := New("w")
	w.Add(&Task{ID: "s", NominalDur: 1})
	w.Add(&Task{ID: "short", NominalDur: 1, Deps: []TaskID{"s"}})
	w.Add(&Task{ID: "long", NominalDur: 10, Deps: []TaskID{"s"}})
	w.Add(&Task{ID: "t", NominalDur: 1, Deps: []TaskID{"short", "long"}})
	length, path := w.CriticalPath(NominalDur)
	if length != 12 {
		t.Fatalf("length = %v, want 12", length)
	}
	found := false
	for _, id := range path {
		if id == "long" {
			found = true
		}
	}
	if !found {
		t.Fatalf("critical path %v skips the long branch", path)
	}
}

func TestUpwardRanks(t *testing.T) {
	w := lin("a", "b", "c")
	ranks := w.UpwardRanks(nil, NominalDur)
	rank := func(id TaskID) float64 { return ranks[w.index[id]] }
	if rank("a") != 3 || rank("b") != 2 || rank("c") != 1 {
		t.Fatalf("ranks = %v", ranks)
	}
	// A destination with room is refilled in place, whatever it held.
	buf := []float64{9, 9, 9, 9}
	if got := w.UpwardRanks(buf[:1], NominalDur); !slices.Equal(got, ranks) || &got[0] != &buf[0] {
		t.Fatalf("ranks into a reused buffer = %v, want %v in place", got, ranks)
	}
}

func TestGeneratorsValid(t *testing.T) {
	rng := randx.New(7)
	wfs := []*Workflow{
		Chain(rng, 10, GenOpts{}),
		ForkJoin(rng, 3, 8, GenOpts{}),
		Diamond(rng, GenOpts{}),
		RandomLayered(rng, 6, 10, GenOpts{}),
		MontageLike(rng, 12, GenOpts{}),
		EpigenomicsLike(rng, 4, 5, GenOpts{}),
		RNASeqLike(rng, 9, GenOpts{}),
	}
	for _, w := range wfs {
		if err := w.Validate(); err != nil {
			t.Errorf("%s invalid: %v", w.Name, err)
		}
		if w.Len() == 0 {
			t.Errorf("%s is empty", w.Name)
		}
		for _, task := range w.Tasks() {
			if task.NominalDur <= 0 {
				t.Errorf("%s/%s has non-positive duration", w.Name, task.ID)
			}
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	rng := randx.New(8)
	fj := ForkJoin(rng, 2, 5, GenOpts{})
	if fj.Len() != 12 { // 2 × (5 fan + 1 merge)
		t.Fatalf("forkjoin size = %d, want 12", fj.Len())
	}
	rs := RNASeqLike(rng, 3, GenOpts{})
	if rs.Len() != 12 { // 3 samples × 4 steps
		t.Fatalf("rnaseq size = %d, want 12", rs.Len())
	}
	if got := len(rs.Roots()); got != 3 {
		t.Fatalf("rnaseq roots = %d, want 3", got)
	}
	m := MontageLike(rng, 6, GenOpts{})
	if got := len(m.Roots()); got != 6 {
		t.Fatalf("montage roots = %d, want 6", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := MontageLike(randx.New(11), 8, GenOpts{})
	b := MontageLike(randx.New(11), 8, GenOpts{})
	ta, tb := a.Tasks(), b.Tasks()
	if len(ta) != len(tb) {
		t.Fatal("different sizes from same seed")
	}
	for i := range ta {
		if ta[i].NominalDur != tb[i].NominalDur || ta[i].ID != tb[i].ID {
			t.Fatalf("task %d differs between same-seed runs", i)
		}
	}
}

// Property: the critical path never exceeds the sum of all durations and is
// at least the maximum single duration.
func TestCriticalPathBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		w := RandomLayered(rng, 4, 5, GenOpts{})
		cp, _ := w.CriticalPath(NominalDur)
		sum, max := 0.0, 0.0
		for _, task := range w.Tasks() {
			sum += task.NominalDur
			if task.NominalDur > max {
				max = task.NominalDur
			}
		}
		return cp <= sum+1e-9 && cp >= max-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: upward rank of any task >= its own duration, and rank of a
// parent > rank of each child.
func TestUpwardRankMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		w := RandomLayered(rng, 4, 5, GenOpts{})
		ranks := w.UpwardRanks(nil, NominalDur)
		for i, task := range w.Tasks() {
			if ranks[i] < task.NominalDur-1e-9 {
				return false
			}
			for _, c := range children(w, task.ID) {
				if ranks[i] <= ranks[w.index[c.ID]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestToDOT(t *testing.T) {
	w := Diamond(randx.New(5), GenOpts{})
	dot := w.ToDOT()
	for _, want := range []string{"digraph", `"src" -> "left"`, `"left" -> "sink"`, "rankdir"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Deterministic output.
	if dot != Diamond(randx.New(5), GenOpts{}).ToDOT() {
		t.Fatal("ToDOT nondeterministic")
	}
}
