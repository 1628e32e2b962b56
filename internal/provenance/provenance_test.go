package provenance

import (
	"encoding/json"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/sim"
)

func rec(wf string, task dag.TaskID, name string, start, end sim.Time, failed bool) TaskRecord {
	return TaskRecord{
		WorkflowID: wf, TaskID: task, Name: name,
		StartedAt: start, FinishedAt: end,
		Node: "n-0001", MachineType: "a", SpeedFactor: 1,
		InputBytes: 1e6, OutputBytes: 2e6, PeakMem: 1e9,
		Failed: failed,
	}
}

// byWorkflow returns the retained records of workflow id in insertion
// order.
func byWorkflow(s *Store, id string) []TaskRecord {
	var out []TaskRecord
	for _, r := range s.records {
		if r.WorkflowID == id {
			out = append(out, r)
		}
	}
	return out
}

func TestAddAndQuery(t *testing.T) {
	s := NewStore()
	s.AddTask(rec("wf1", "a", "salmon", 0, 10, false))
	s.AddTask(rec("wf1", "b", "salmon", 10, 30, false))
	s.AddTask(rec("wf2", "a", "prefetch", 0, 5, true))
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := len(byWorkflow(s, "wf1")); got != 2 {
		t.Fatalf("records of wf1 = %d", got)
	}
	if st := s.StatsByName(); len(st) != 2 || st[1].Name != "salmon" || st[1].Executions != 2 {
		t.Fatalf("StatsByName = %+v", st)
	}
	if got := len(byWorkflow(s, "missing")); got != 0 {
		t.Fatalf("records of missing = %d", got)
	}
}

func TestRuntime(t *testing.T) {
	r := rec("w", "a", "x", 5, 17, false)
	if r.Runtime() != 12 {
		t.Fatalf("Runtime = %v", r.Runtime())
	}
}

func TestStatsByName(t *testing.T) {
	s := NewStore()
	s.AddTask(rec("w", "a", "salmon", 0, 10, false))
	s.AddTask(rec("w", "b", "salmon", 0, 30, false))
	s.AddTask(rec("w", "c", "salmon", 0, 5, true))
	s.AddTask(rec("w", "d", "deseq2", 0, 2, false))
	stats := s.StatsByName()
	if len(stats) != 2 {
		t.Fatalf("stats = %d names", len(stats))
	}
	// Sorted: deseq2 then salmon.
	if stats[0].Name != "deseq2" || stats[1].Name != "salmon" {
		t.Fatalf("order = %v, %v", stats[0].Name, stats[1].Name)
	}
	sal := stats[1]
	if sal.Executions != 3 || sal.Failures != 1 {
		t.Fatalf("salmon executions=%d failures=%d", sal.Executions, sal.Failures)
	}
	if sal.MeanRuntime != 20 || sal.MaxRuntime != 30 {
		t.Fatalf("salmon mean=%v max=%v", sal.MeanRuntime, sal.MaxRuntime)
	}
}

func TestNodeEvents(t *testing.T) {
	s := NewStore()
	s.AddNodeEvent(NodeEvent{At: 5, Node: "n1", Kind: "down"})
	s.AddNodeEvent(NodeEvent{At: 9, Node: "n1", Kind: "up"})
	ev := exportDoc(t, s).NodeTraces
	if len(ev) != 2 || ev[0].At != 5 || ev[0].Node != "n1" || ev[0].Kind != "down" || ev[1].Kind != "up" {
		t.Fatalf("events = %+v", ev)
	}
}

// exportDoc decodes the parts of s's PROV export the tests read.
func exportDoc(t *testing.T, s *Store) (doc struct {
	NodeTraces []NodeEvent          `json:"nodeTraces"`
	Workflows  map[string][]provDep `json:"workflows"`
}) {
	t.Helper()
	raw, err := s.ExportPROV()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestExportPROV(t *testing.T) {
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a"})
	w.Add(&dag.Task{ID: "b", Deps: []dag.TaskID{"a"}})
	s := NewStore()
	s.RegisterWorkflow("w", w)
	s.AddTask(rec("w", "a", "x", 0, 10, false))
	s.AddTask(rec("w", "b", "y", 10, 20, false))
	s.AddNodeEvent(NodeEvent{At: 3, Node: "n1", Kind: "down"})

	raw, err := s.ExportPROV()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	for _, key := range []string{"activity", "entity", "wasGeneratedBy", "nodeTraces", "workflows"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("export missing %q section", key)
		}
	}
	var acts map[string]any
	if err := json.Unmarshal(doc["activity"], &acts); err != nil {
		t.Fatal(err)
	}
	if len(acts) != 2 {
		t.Fatalf("activities = %d, want 2", len(acts))
	}
	deps := exportDoc(t, s).Workflows["w"]
	if len(deps) != 2 || deps[1].Task != "b" || len(deps[1].Deps) != 1 || deps[1].Deps[0] != "a" {
		t.Fatalf("exported dependencies = %+v", deps)
	}
}

func TestAllReturnsCopy(t *testing.T) {
	s := NewStore()
	s.AddTask(rec("w", "a", "x", 0, 10, false))
	all := s.All()
	all[0].WorkflowID = "mutated"
	if s.All()[0].WorkflowID != "w" {
		t.Fatal("All exposed internal storage")
	}
}
