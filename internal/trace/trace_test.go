package trace

import (
	"encoding/json"
	"math"
	"testing"

	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
)

func TestFromProvenanceBasic(t *testing.T) {
	s := provenance.NewStore()
	s.AddTask(provenance.TaskRecord{
		WorkflowID: "w", TaskID: "a", Name: "proc", Attempt: 1,
		StartedAt: 10, FinishedAt: 25, Node: "n-0001", MachineType: "x",
	})
	s.AddTask(provenance.TaskRecord{
		WorkflowID: "w", TaskID: "b", Name: "proc", Attempt: 1,
		StartedAt: 25, FinishedAt: 60, Node: "n-0002", Failed: true,
	})
	doc := FromProvenance(s)
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].TS != 10e6 || doc.TraceEvents[0].Dur != 15e6 {
		t.Fatalf("event timing: %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1].Cat != "failed" {
		t.Fatal("failed attempt not categorized")
	}
	if lanes(doc) != 2 {
		t.Fatalf("lanes = %d", lanes(doc))
	}
	if span(doc) != 50 {
		t.Fatalf("span = %v, want 50", span(doc))
	}
}

func TestJSONValid(t *testing.T) {
	s := provenance.NewStore()
	s.AddTask(provenance.TaskRecord{WorkflowID: "w", TaskID: "a", StartedAt: 0, FinishedAt: 1, Node: "n"})
	raw, err := FromProvenance(s).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]json.RawMessage
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	if _, ok := parsed["traceEvents"]; !ok {
		t.Fatal("missing traceEvents")
	}
}

func TestEndToEndFromCWSRun(t *testing.T) {
	w := dag.ForkJoin(randx.New(5), 2, 4, dag.GenOpts{MeanDur: 60})
	res, err := core.Run(&core.KubernetesEnv{Nodes: 2, CoresPerNode: 8, Strategy: cwsi.Rank{}}, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := FromProvenance(res.Provenance.(*provenance.Store))
	if len(doc.TraceEvents) != w.Len() {
		t.Fatalf("events = %d, want %d", len(doc.TraceEvents), w.Len())
	}
	// The trace span equals the makespan.
	if got := span(doc); got != res.MakespanSec {
		t.Fatalf("span = %v, makespan = %v", got, res.MakespanSec)
	}
	// At most 2 lanes (2 nodes).
	if lanes(doc) > 2 {
		t.Fatalf("lanes = %d", lanes(doc))
	}
}

// span returns the extent of d's events in seconds (0 if empty).
func span(d *Doc) float64 {
	if len(d.TraceEvents) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, e := range d.TraceEvents {
		lo, hi = min(lo, e.TS/1e6), max(hi, (e.TS+e.Dur)/1e6)
	}
	return hi - lo
}

// lanes returns the number of distinct node lanes in d.
func lanes(d *Doc) int {
	seen := map[int]bool{}
	for _, e := range d.TraceEvents {
		seen[e.TID] = true
	}
	return len(seen)
}

func TestEmptyStore(t *testing.T) {
	doc := FromProvenance(provenance.NewStore())
	if len(doc.TraceEvents) != 0 || span(doc) != 0 || lanes(doc) != 0 {
		t.Fatal("empty store should give empty trace")
	}
}

func TestFromProvenanceSortedByTS(t *testing.T) {
	// Store order is completion order; emission must be (TS, TID) order.
	s := provenance.NewStore()
	s.AddTask(provenance.TaskRecord{
		WorkflowID: "w", TaskID: "late", StartedAt: 50, FinishedAt: 60, Node: "n-0001",
	})
	s.AddTask(provenance.TaskRecord{
		WorkflowID: "w", TaskID: "early", StartedAt: 5, FinishedAt: 90, Node: "n-0002",
	})
	s.AddTask(provenance.TaskRecord{
		WorkflowID: "w", TaskID: "tie-lane2", StartedAt: 5, FinishedAt: 7, Node: "n-0003",
	})
	doc := FromProvenance(s)
	want := []string{"early", "tie-lane2", "late"}
	for i, name := range want {
		if doc.TraceEvents[i].Name != name {
			t.Fatalf("event %d = %q, want %q (order: %+v)", i, doc.TraceEvents[i].Name, name, doc.TraceEvents)
		}
	}
	if doc.TraceEvents[0].TID >= doc.TraceEvents[1].TID {
		t.Fatal("TS ties must break by TID")
	}
}

func TestFailedEventCarriesRecoveryMetadata(t *testing.T) {
	s := provenance.NewStore()
	i := s.AddTask(provenance.TaskRecord{
		WorkflowID: "w", TaskID: "a", Attempt: 1, StartedAt: 0, FinishedAt: 5,
		Node: "n-0001", Failed: true, Error: "node down",
	})
	s.AnnotateRetry(i, 12.5, "retry(max=5)")
	doc := FromProvenance(s)
	ev := doc.TraceEvents[0]
	if ev.Cat != "failed" {
		t.Fatalf("cat = %q", ev.Cat)
	}
	if ev.Args["retryDelaySec"] != 12.5 || ev.Args["retryPolicy"] != "retry(max=5)" {
		t.Fatalf("recovery metadata missing: %+v", ev.Args)
	}
	if ev.Args["error"] != "node down" {
		t.Fatalf("error missing: %+v", ev.Args)
	}
}
