package compose

import (
	"errors"
	"strings"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/jaws"
)

func innerWF() *dag.Workflow {
	w := dag.New("inner")
	w.Add(&dag.Task{ID: "a", Name: "a", NominalDur: 1, InputBytes: 1, OutputBytes: 2})
	w.Add(&dag.Task{ID: "b", Name: "b", NominalDur: 1, Deps: []dag.TaskID{"a"}, OutputBytes: 8})
	return w
}

// refRoot mirrors the dag package's refFixture: t0 -> ref(inner) -> t2.
func refRoot() *dag.Workflow {
	root := dag.New("root")
	root.Add(&dag.Task{ID: "t0", Name: "t0", NominalDur: 1, OutputBytes: 10})
	r := dag.WorkflowRef("r1", "inner", nil)
	r.Deps = []dag.TaskID{"t0"}
	r.InputBytes = 5
	root.Add(r)
	root.Add(&dag.Task{ID: "t2", Name: "t2", NominalDur: 1, Deps: []dag.TaskID{"r1"}, InputBytes: 3})
	return root
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestRegistryBasics(t *testing.T) {
	reg := NewRegistry()
	reg.Register("inner", Workflow{W: innerWF()})
	reg.Register("alpha", Workflow{W: innerWF()})

	if _, ok := reg.Lookup("inner"); !ok {
		t.Fatal("Lookup(inner) failed")
	}
	if _, ok := reg.Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
	names := reg.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "inner" {
		t.Fatalf("Names = %v, want [alpha inner] (sorted)", names)
	}

	mustPanic(t, "duplicate Register", func() { reg.Register("inner", Workflow{W: innerWF()}) })
	mustPanic(t, "empty name", func() { reg.Register("", Workflow{W: innerWF()}) })
	mustPanic(t, "slash name", func() { reg.Register("a/b", Workflow{W: innerWF()}) })
	mustPanic(t, "nil compiler", func() { reg.Register("nilc", nil) })

	if _, err := reg.resolve("inner", nil); err != nil {
		t.Fatal(err)
	}

	// Params against a non-parameterized entry are an error, not silently
	// ignored.
	if _, err := reg.resolve("inner", map[string]string{"seed": "1"}); err == nil ||
		!strings.Contains(err.Error(), "no binding params") {
		t.Fatalf("params on plain compiler: %v", err)
	}
	// Unknown entries name what IS registered.
	if _, err := reg.resolve("ghost", nil); err == nil ||
		!strings.Contains(err.Error(), "alpha, inner") {
		t.Fatalf("unknown entry error: %v", err)
	}
}

func TestRegistryParamCompiler(t *testing.T) {
	reg := NewRegistry()
	calls := 0
	reg.Register("sized", ParamFunc(func(params map[string]string) (*dag.Workflow, error) {
		calls++
		n := 1
		if params["n"] == "3" {
			n = 3
		}
		w := dag.New("sized")
		for i := 0; i < n; i++ {
			w.Add(&dag.Task{ID: dag.TaskID(string(rune('a' + i))), NominalDur: 1})
		}
		return w, nil
	}))
	w3, err := reg.resolve("sized", map[string]string{"n": "3"})
	if err != nil || w3.Len() != 3 {
		t.Fatalf("n=3: len=%d err=%v", w3.Len(), err)
	}
	w1, err := reg.resolve("sized", nil)
	if err != nil || w1.Len() != 1 {
		t.Fatalf("no params: len=%d err=%v", w1.Len(), err)
	}
	// Same binding resolves from the cache: the compiler runs once per RefKey.
	if _, err := reg.resolve("sized", map[string]string{"n": "3"}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("compiler ran %d times, want 2 (cached per binding)", calls)
	}
}

func TestRegistryStaticExpand(t *testing.T) {
	reg := NewRegistry()
	reg.Register("inner", Workflow{W: innerWF()})
	root := refRoot()

	x, err := reg.Expand(root)
	if err != nil {
		t.Fatal(err)
	}
	// The source is never mutated: its ref is intact.
	if !root.Task("r1").IsRef() || root.Len() != 3 {
		t.Fatal("Expand mutated the source workflow")
	}

	wantIDs := []dag.TaskID{"t0", "r1/a", "r1/b", "t2"}
	if x.Len() != len(wantIDs) {
		t.Fatalf("expanded Len = %d, want %d", x.Len(), len(wantIDs))
	}
	for i, task := range x.Tasks() {
		if task.ID != wantIDs[i] {
			t.Fatalf("task %d = %q, want %q", i, task.ID, wantIDs[i])
		}
	}
	// Barrier + stitch: inner's root gains the ref's bound 5 and t0's output
	// 10 on top of its declared 1.
	a := x.Task("r1/a")
	if len(a.Deps) != 1 || a.Deps[0] != "t0" || a.InputBytes != 16 {
		t.Fatalf("r1/a deps=%v in=%.0f, want [t0]/16", a.Deps, a.InputBytes)
	}
	// The consumer re-hangs off the expanded leaf and inherits its output.
	t2 := x.Task("t2")
	if len(t2.Deps) != 1 || t2.Deps[0] != "r1/b" || t2.InputBytes != 11 {
		t.Fatalf("t2 deps=%v in=%.0f, want [r1/b]/11", t2.Deps, t2.InputBytes)
	}
}

func TestRegistryNestedExpand(t *testing.T) {
	leafwf := dag.New("leafwf")
	leafwf.Add(&dag.Task{ID: "x", Name: "x", NominalDur: 1, OutputBytes: 4})
	mid := dag.New("mid")
	rr := dag.WorkflowRef("innerref", "leafwf", nil)
	rr.InputBytes = 2
	mid.Add(rr)
	mid.Add(&dag.Task{ID: "l2", Name: "l2", NominalDur: 1, Deps: []dag.TaskID{"innerref"}})

	reg := NewRegistry()
	reg.Register("leafwf", Workflow{W: leafwf})
	reg.Register("mid", Workflow{W: mid})

	root := dag.New("root")
	root.Add(&dag.Task{ID: "src", Name: "src", NominalDur: 1, OutputBytes: 100})
	r := dag.WorkflowRef("m", "mid", nil)
	r.Deps = []dag.TaskID{"src"}
	r.InputBytes = 1
	root.Add(r)

	x, err := reg.Expand(root)
	if err != nil {
		t.Fatal(err)
	}
	deep := x.Task("m/innerref/x")
	if deep == nil {
		t.Fatalf("missing nested task; have %v", ids(x))
	}
	// Chain inheritance through two ref levels: declared 0 + innerref's bound
	// 2 + m's bound 1 + supplier src's output 100.
	if deep.InputBytes != 103 {
		t.Fatalf("deep InputBytes = %.0f, want 103", deep.InputBytes)
	}
	if len(deep.Deps) != 1 || deep.Deps[0] != "src" {
		t.Fatalf("deep deps = %v, want [src]", deep.Deps)
	}
	l2 := x.Task("m/l2")
	if l2 == nil || l2.InputBytes != 4 || len(l2.Deps) != 1 || l2.Deps[0] != "m/innerref/x" {
		t.Fatalf("m/l2 = %+v, want deps [m/innerref/x] in 4", l2)
	}
}

func ids(w *dag.Workflow) []dag.TaskID {
	var out []dag.TaskID
	for _, t := range w.Tasks() {
		out = append(out, t.ID)
	}
	return out
}

func TestRegistrySelfReference(t *testing.T) {
	// Same-binding self-reference is a cycle, caught structurally.
	reg := NewRegistry()
	rec := dag.New("rec")
	rec.Add(&dag.Task{ID: "work", NominalDur: 1})
	rec.Add(dag.WorkflowRef("again", "rec", nil))
	reg.Register("rec", Workflow{W: rec})

	root := dag.New("root")
	root.Add(dag.WorkflowRef("start", "rec", nil))
	var cyc *dag.RefCycleError
	if _, err := reg.Expand(root); !errors.As(err, &cyc) {
		t.Fatalf("want *dag.RefCycleError, got %v", err)
	}

	// Param-varying self-reference (a countdown) recurses through distinct
	// bindings: legal within the depth budget, a structured depth error past
	// it.
	reg2 := NewRegistry()
	reg2.MaxDepth = 3
	reg2.Register("count", ParamFunc(func(params map[string]string) (*dag.Workflow, error) {
		n := params["n"]
		w := dag.New("count")
		w.Add(&dag.Task{ID: "work", NominalDur: 1})
		next := map[string]string{"9": "8", "8": "7", "7": "6", "6": "5", "5": "4", "4": "3", "3": "2", "2": "1", "1": ""}[n]
		if next != "" {
			w.Add(dag.WorkflowRef("down", "count", map[string]string{"n": next}))
		}
		return w, nil
	}))
	shallow := dag.New("root")
	shallow.Add(dag.WorkflowRef("start", "count", map[string]string{"n": "2"}))
	if x, err := reg2.Expand(shallow); err != nil || x.Len() != 2 {
		t.Fatalf("countdown n=2: len=%d err=%v", x.Len(), err)
	}
	deepr := dag.New("root")
	deepr.Add(dag.WorkflowRef("start", "count", map[string]string{"n": "9"}))
	var dep *dag.RefDepthError
	if _, err := reg2.Expand(deepr); !errors.As(err, &dep) {
		t.Fatalf("want *dag.RefDepthError, got %v", err)
	} else if dep.Limit != 3 {
		t.Fatalf("Limit = %d, want 3", dep.Limit)
	}
}

func TestRegistryExpandDepth(t *testing.T) {
	leafwf := dag.New("leafwf")
	leafwf.Add(&dag.Task{ID: "x", NominalDur: 1})
	mid := dag.New("mid")
	mid.Add(dag.WorkflowRef("innerref", "leafwf", nil))

	reg := NewRegistry()
	reg.Register("leafwf", Workflow{W: leafwf})
	reg.Register("mid", Workflow{W: mid})

	root := dag.New("root")
	root.Add(dag.WorkflowRef("m", "mid", nil))

	d0, err := reg.ExpandDepth(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d0.Len() != 1 || !d0.Task("m").IsRef() {
		t.Fatalf("depth 0: %v", ids(d0))
	}
	d1, err := reg.ExpandDepth(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner := d1.Task("m/innerref")
	if d1.Len() != 1 || inner == nil || !inner.IsRef() || inner.Ref != "leafwf" {
		t.Fatalf("depth 1: %v", ids(d1))
	}
	d2, err := reg.ExpandDepth(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 || d2.Task("m/innerref/x") == nil {
		t.Fatalf("depth 2: %v", ids(d2))
	}

	// ExpandDepth tolerates cyclic registries — the cutoff bounds recursion —
	// so inspection tooling can render them.
	cyc := dag.New("cyc")
	cyc.Add(&dag.Task{ID: "w", NominalDur: 1})
	cyc.Add(dag.WorkflowRef("again", "cyc", nil))
	regc := NewRegistry()
	regc.Register("cyc", Workflow{W: cyc})
	rootc := dag.New("root")
	rootc.Add(dag.WorkflowRef("c", "cyc", nil))
	dc, err := regc.ExpandDepth(rootc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Task("c/again/again") == nil || !dc.Task("c/again/again").IsRef() {
		t.Fatalf("cyclic depth 2: %v", ids(dc))
	}
}

// A plain task whose ID lands inside a sibling ref's expanded namespace must
// surface as a structured *CollisionError — in either insertion order, and
// through nested namespaces.
func TestRegistryCollisionError(t *testing.T) {
	reg := NewRegistry()
	reg.Register("inner", Workflow{W: innerWF()})

	// Ref first, colliding plain task second.
	r1 := dag.New("root")
	r1.Add(dag.WorkflowRef("u", "inner", nil))
	r1.Add(&dag.Task{ID: "u/a", NominalDur: 1})
	var ce *CollisionError
	if _, err := reg.Expand(r1); !errors.As(err, &ce) {
		t.Fatalf("want *CollisionError, got %v", err)
	}
	if ce.TaskID != "u/a" || ce.Namespace != "u" {
		t.Fatalf("CollisionError = %+v, want TaskID u/a in namespace u", ce)
	}

	// Plain task first, ref second: the collision is caught inside Embed.
	r2 := dag.New("root")
	r2.Add(&dag.Task{ID: "u/a", NominalDur: 1})
	r2.Add(dag.WorkflowRef("u", "inner", nil))
	ce = nil
	if _, err := reg.Expand(r2); !errors.As(err, &ce) {
		t.Fatalf("want *CollisionError, got %v", err)
	}
	if ce.TaskID != "u/a" || ce.Namespace != "u" {
		t.Fatalf("CollisionError = %+v, want TaskID u/a in namespace u", ce)
	}

	// Nested-namespace regression: the collision is two ref levels down.
	mid := dag.New("mid")
	mid.Add(dag.WorkflowRef("innerref", "inner", nil))
	reg.Register("mid", Workflow{W: mid})
	r3 := dag.New("root")
	r3.Add(dag.WorkflowRef("m", "mid", nil))
	r3.Add(&dag.Task{ID: "m/innerref/a", NominalDur: 1})
	ce = nil
	if _, err := reg.Expand(r3); !errors.As(err, &ce) {
		t.Fatalf("nested: want *CollisionError, got %v", err)
	}
	if ce.TaskID != "m/innerref/a" || ce.Namespace != "m" {
		t.Fatalf("nested CollisionError = %+v, want TaskID m/innerref/a in namespace m", ce)
	}
}

// Direct Embed collisions carry the namespace they were embedded under.
func TestEmbedCollisionError(t *testing.T) {
	dst := dag.New("dst")
	dst.Add(&dag.Task{ID: "ns/a", NominalDur: 1})
	_, err := Embed(dst, "ns", innerWF(), nil)
	var ce *CollisionError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CollisionError, got %v", err)
	}
	if ce.Namespace != "ns" || ce.TaskID != "ns/a" || ce.Workflow != "dst" || ce.Sub != "inner" {
		t.Fatalf("CollisionError = %+v", ce)
	}
}

func TestInferEdgesBasic(t *testing.T) {
	w := dag.New("w")
	w.Add(&dag.Task{ID: "p", NominalDur: 1, OutputBytes: 10, Produces: []string{"reads"}})
	w.Add(&dag.Task{ID: "c", NominalDur: 1, InputBytes: 3, Consumes: []string{"reads", "genome"}})
	if err := InferEdges(w); err != nil {
		t.Fatal(err)
	}
	c := w.Task("c")
	if len(c.Deps) != 1 || c.Deps[0] != "p" {
		t.Fatalf("c deps = %v, want [p]", c.Deps)
	}
	// Producer bytes stitched; "genome" has no producer — an external input,
	// not an error.
	if c.InputBytes != 13 {
		t.Fatalf("c InputBytes = %.0f, want 13", c.InputBytes)
	}
}

func TestInferEdgesExplicitOverride(t *testing.T) {
	w := dag.New("w")
	w.Add(&dag.Task{ID: "p1", NominalDur: 1, OutputBytes: 10, Produces: []string{"reads"}})
	w.Add(&dag.Task{ID: "p2", NominalDur: 1, OutputBytes: 20, Produces: []string{"reads"}})
	w.Add(&dag.Task{ID: "c", NominalDur: 1, Deps: []dag.TaskID{"p2"}, Consumes: []string{"reads"}})
	// Two producers would be ambiguous, but the hand-written edge to p2 is
	// the override: no error, no extra edge, no byte stitch.
	if err := InferEdges(w); err != nil {
		t.Fatal(err)
	}
	c := w.Task("c")
	if len(c.Deps) != 1 || c.InputBytes != 0 {
		t.Fatalf("override violated: deps=%v in=%.0f", c.Deps, c.InputBytes)
	}
}

func TestInferEdgesAmbiguous(t *testing.T) {
	w := dag.New("w")
	w.Add(&dag.Task{ID: "p1", NominalDur: 1, Produces: []string{"reads"}})
	w.Add(&dag.Task{ID: "p2", NominalDur: 1, Produces: []string{"reads"}})
	w.Add(&dag.Task{ID: "c", NominalDur: 1, Consumes: []string{"reads"}})
	err := InferEdges(w)
	var amb *AmbiguousMatchError
	if !errors.As(err, &amb) {
		t.Fatalf("want *AmbiguousMatchError, got %v", err)
	}
	if amb.Consumer != "c" || amb.Type != "reads" || len(amb.Producers) != 2 {
		t.Fatalf("AmbiguousMatchError = %+v", amb)
	}
	if !strings.Contains(err.Error(), "stitch the intended producer explicitly") {
		t.Fatalf("error not actionable: %v", err)
	}
}

func TestInferEdgesZeroBytes(t *testing.T) {
	w := dag.New("w")
	w.Add(&dag.Task{ID: "p", NominalDur: 1, OutputBytes: 0, Produces: []string{"signal"}})
	w.Add(&dag.Task{ID: "c", NominalDur: 1, Consumes: []string{"signal"}})
	if err := InferEdges(w); err != nil {
		t.Fatal(err)
	}
	c := w.Task("c")
	// The dependency is real even with no bytes crossing it.
	if len(c.Deps) != 1 || c.Deps[0] != "p" || c.InputBytes != 0 {
		t.Fatalf("zero-byte edge: deps=%v in=%.0f", c.Deps, c.InputBytes)
	}
}

// Inference across a ref boundary adds the edge but not the bytes — expansion
// stitches the boundary, and doing both would double-count.
func TestInferEdgesRefBoundary(t *testing.T) {
	reg := NewRegistry()
	reg.Register("inner", Workflow{W: innerWF()})

	root := dag.New("root")
	root.Add(&dag.Task{ID: "gen", NominalDur: 1, OutputBytes: 10, Produces: []string{"reads"}})
	r := dag.WorkflowRef("u", "inner", nil)
	r.Consumes = []string{"reads"}
	root.Add(r)

	x, err := reg.Expand(root)
	if err != nil {
		t.Fatal(err)
	}
	a := x.Task("u/a")
	if len(a.Deps) != 1 || a.Deps[0] != "gen" {
		t.Fatalf("inferred ref edge missing: deps=%v", a.Deps)
	}
	// Exactly one stitch: inner a's declared 1 + gen's output 10 — not 21.
	if a.InputBytes != 11 {
		t.Fatalf("u/a InputBytes = %.0f, want 11 (stitched once)", a.InputBytes)
	}
}

// A WorkflowRef can point at a jaws WDL entry with scatter: shard IDs (which
// themselves contain "/") namespace cleanly, and static and lazy expansion
// agree on the result.
func TestRegistryJawsScatterRef(t *testing.T) {
	def := &jaws.WorkflowDef{
		Name: "scatterwf",
		Tasks: []*jaws.TaskDef{
			{Name: "align", Cores: 1, DurationSec: 10, OverheadSec: 1, Scatter: 4},
			{Name: "merge", Cores: 1, DurationSec: 5, OverheadSec: 1, After: []string{"align"}},
		},
	}
	reg := NewRegistry()
	reg.Register("jw", def)

	root := dag.New("root")
	root.Add(&dag.Task{ID: "prep", Name: "prep", NominalDur: 1, OutputBytes: 10})
	r := dag.WorkflowRef("sc", "jw", nil)
	r.Deps = []dag.TaskID{"prep"}
	root.Add(r)
	root.Add(&dag.Task{ID: "post", Name: "post", NominalDur: 1, Deps: []dag.TaskID{"sc"}})

	x, err := reg.Expand(root)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		id := dag.TaskID("sc/align/shard000" + string(rune('0'+s)))
		sh := x.Task(id)
		if sh == nil {
			t.Fatalf("missing shard %s; have %v", id, ids(x))
		}
		if len(sh.Deps) != 1 || sh.Deps[0] != "prep" {
			t.Fatalf("%s deps = %v, want [prep]", id, sh.Deps)
		}
	}
	if m := x.Task("sc/merge"); m == nil || len(m.Deps) != 4 {
		t.Fatalf("sc/merge = %+v", x.Task("sc/merge"))
	}
	if p := x.Task("post"); p == nil || len(p.Deps) != 1 || p.Deps[0] != "sc/merge" {
		t.Fatalf("post = %+v", x.Task("post"))
	}

	// The lazy expansion of the same root replays the static tape exactly.
	assertTapeEquivalence(t, reg, root, 7, 0)
	assertTapeEquivalence(t, reg, root, 7, 0.3)
}
