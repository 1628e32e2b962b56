package dag

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func mapResolver(m map[string]*Workflow) RefResolver {
	return func(name string, params map[string]string) (*Workflow, error) {
		w, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("no entry %q", name)
		}
		return w, nil
	}
}

func linear(name string, ids ...TaskID) *Workflow {
	w := New(name)
	var prev TaskID
	for _, id := range ids {
		t := &Task{ID: id, Name: string(id), NominalDur: 1}
		if prev != "" {
			t.Deps = []TaskID{prev}
		}
		w.Add(t)
		prev = id
	}
	return w
}

func TestWorkflowRefCtor(t *testing.T) {
	r := WorkflowRef("uq", "exaam-uq", map[string]string{"seed": "7"})
	if !r.IsRef() || r.Ref != "exaam-uq" || r.ID != "uq" || r.Params["seed"] != "7" {
		t.Fatalf("unexpected ref task: %+v", r)
	}
	if (&Task{ID: "plain"}).IsRef() {
		t.Fatal("plain task claims to be a ref")
	}
}

func TestRefKey(t *testing.T) {
	if k := RefKey("a", nil); k != "a" {
		t.Fatalf("RefKey(a, nil) = %q", k)
	}
	k1 := RefKey("a", map[string]string{"b": "2", "a": "1"})
	k2 := RefKey("a", map[string]string{"a": "1", "b": "2"})
	if k1 != k2 || k1 != "a[a=1,b=2]" {
		t.Fatalf("RefKey not canonical: %q vs %q", k1, k2)
	}
}

func TestValidateRefsCycle(t *testing.T) {
	a := New("a")
	a.Add(WorkflowRef("to-b", "b", nil))
	b := New("b")
	b.Add(WorkflowRef("to-a", "a", nil))
	root := New("root")
	root.Add(WorkflowRef("start", "a", nil))

	err := ValidateRefs(root, mapResolver(map[string]*Workflow{"a": a, "b": b}), 0)
	var cyc *RefCycleError
	if !errors.As(err, &cyc) {
		t.Fatalf("want *RefCycleError, got %v", err)
	}
	want := []string{"root", "a", "b", "a"}
	if len(cyc.Chain) != len(want) {
		t.Fatalf("chain %v, want %v", cyc.Chain, want)
	}
	for i := range want {
		if cyc.Chain[i] != want[i] {
			t.Fatalf("chain %v, want %v", cyc.Chain, want)
		}
	}
	if !strings.Contains(err.Error(), "root -> a -> b -> a") {
		t.Fatalf("error does not name the chain: %v", err)
	}
}

func TestValidateRefsSelfCycle(t *testing.T) {
	rec := New("rec")
	rec.Add(&Task{ID: "work", NominalDur: 1})
	rec.Add(WorkflowRef("again", "rec", nil))
	root := New("root")
	root.Add(WorkflowRef("start", "rec", nil))

	err := ValidateRefs(root, mapResolver(map[string]*Workflow{"rec": rec}), 0)
	var cyc *RefCycleError
	if !errors.As(err, &cyc) {
		t.Fatalf("want *RefCycleError, got %v", err)
	}
}

func TestValidateRefsDepth(t *testing.T) {
	// d0 -> d1 -> d2 -> d3 -> leaf workflow, checked with maxDepth 3:
	// entering d3's target is depth 4.
	m := map[string]*Workflow{"d3": linear("d3", "x")}
	for i := 2; i >= 0; i-- {
		w := New(fmt.Sprintf("d%d", i))
		w.Add(WorkflowRef("next", fmt.Sprintf("d%d", i+1), nil))
		m[w.Name] = w
	}
	root := New("root")
	root.Add(WorkflowRef("start", "d0", nil))

	err := ValidateRefs(root, mapResolver(m), 3)
	var dep *RefDepthError
	if !errors.As(err, &dep) {
		t.Fatalf("want *RefDepthError, got %v", err)
	}
	if dep.Limit != 3 {
		t.Fatalf("Limit = %d, want 3", dep.Limit)
	}
	if got := strings.Join(dep.Chain, " -> "); got != "root -> d0 -> d1 -> d2 -> d3" {
		t.Fatalf("chain = %q", got)
	}
	// The same tree passes with enough budget.
	if err := ValidateRefs(root, mapResolver(m), 4); err != nil {
		t.Fatalf("depth 4 should pass: %v", err)
	}
}

func TestValidateRefsResolverError(t *testing.T) {
	root := New("root")
	root.Add(WorkflowRef("start", "nope", nil))
	err := ValidateRefs(root, mapResolver(nil), 0)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("want resolver error naming the target, got %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	w := linear("w", "a", "b")
	c := w.Clone()
	if err := c.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	c.Task("b").InputBytes = 99
	if w.Task("b").InputBytes == 99 {
		t.Fatal("clone shares task structs with the original")
	}
	if w.Len() != c.Len() || c.Name != w.Name {
		t.Fatalf("clone shape mismatch")
	}
}
