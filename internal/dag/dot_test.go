package dag

import (
	"strings"
	"testing"
)

// TestToDOTGolden pins the exact rendering, including escaping of quotes and
// backslashes in IDs and names — the label-injection fix. The raw strings
// below are the bytes Graphviz must receive.
func TestToDOTGolden(t *testing.T) {
	w := New(`pipe"line`)
	w.Add(&Task{ID: `stage\one`, Name: `pre"pare`, NominalDur: 60, Cores: 2})
	w.Add(&Task{ID: `stage\two`, Name: "merge", NominalDur: 90, Cores: 1, Deps: []TaskID{`stage\one`}})

	want := strings.Join([]string{
		`digraph "pipe\"line" {`,
		`  rankdir=TB;`,
		`  node [shape=box];`,
		`  "stage\\one" [label="stage\\one\npre\"pare (60s, 2c)"];`,
		`  "stage\\two" [label="stage\\two\nmerge (90s, 1c)"];`,
		`  "stage\\one" -> "stage\\two";`,
		`}`,
		``,
	}, "\n")
	if got := w.ToDOT(); got != want {
		t.Errorf("ToDOT mismatch\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestToDOTRefGolden pins the collapsed-box rendering of WorkflowRef tasks:
// box3d shape, grey fill, and a label naming the referenced entry — the shape
// wfsim's -dot / -dot-expand-depth flags surface.
func TestToDOTRefGolden(t *testing.T) {
	w := New("composed")
	w.Add(&Task{ID: "prep", Name: "prep", NominalDur: 30, Cores: 1})
	r := WorkflowRef("uq", "exaam-uq", nil)
	r.Deps = []TaskID{"prep"}
	w.Add(r)

	want := strings.Join([]string{
		`digraph "composed" {`,
		`  rankdir=TB;`,
		`  node [shape=box];`,
		`  "prep" [label="prep\nprep (30s, 1c)"];`,
		`  "uq" [shape=box3d style=filled fillcolor=lightgrey label="uq\n= exaam-uq (sub-workflow)"];`,
		`  "prep" -> "uq";`,
		`}`,
		``,
	}, "\n")
	if got := w.ToDOT(); got != want {
		t.Errorf("ToDOT ref mismatch\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestToDOTNoRawQuotes checks that no label can break out of its quoted
// string: every line must have an even number of unescaped quotes.
func TestToDOTNoRawQuotes(t *testing.T) {
	w := New(`a"b\c`)
	w.Add(&Task{ID: `t"0\`, Name: `n"ame\`, NominalDur: 10})
	w.Add(&Task{ID: `t"1`, Name: "plain", NominalDur: 10, Deps: []TaskID{`t"0\`}})
	for _, line := range strings.Split(w.ToDOT(), "\n") {
		unescaped := 0
		for i := 0; i < len(line); i++ {
			switch line[i] {
			case '\\':
				i++ // skip the escaped character
			case '"':
				unescaped++
			}
		}
		if unescaped%2 != 0 {
			t.Errorf("line with unbalanced unescaped quotes: %s", line)
		}
	}
}

func TestAddEdge(t *testing.T) {
	w := New("stitch")
	w.Add(&Task{ID: "a", Name: "a", NominalDur: 1})
	w.Add(&Task{ID: "b", Name: "b", NominalDur: 1})
	if err := w.AddEdge("a", "b"); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	// Idempotent.
	if err := w.AddEdge("a", "b"); err != nil {
		t.Fatalf("duplicate AddEdge: %v", err)
	}
	if got := len(w.Task("b").Deps); got != 1 {
		t.Fatalf("b has %d deps, want 1", got)
	}
	if got := len(children(w, "a")); got != 1 {
		t.Fatalf("a has %d children, want 1", got)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate after AddEdge: %v", err)
	}

	if err := w.AddEdge("a", "a"); err == nil {
		t.Error("self-edge accepted")
	}
	if err := w.AddEdge("missing", "b"); err == nil {
		t.Error("edge from unknown task accepted")
	}
	if err := w.AddEdge("a", "missing"); err == nil {
		t.Error("edge to unknown task accepted")
	}

	// A stitched cycle must be caught by Validate, not silently kept.
	if err := w.AddEdge("b", "a"); err != nil {
		t.Fatalf("AddEdge b->a: %v", err)
	}
	if err := w.Validate(); err == nil {
		t.Error("Validate accepted a stitched cycle")
	}
}
