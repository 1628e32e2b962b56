package provenance

import "testing"

// TestTaskObserver pins the provenance→predict feed contract: the observer
// sees every ingested record exactly once, in insertion order.
func TestTaskObserver(t *testing.T) {
	s := NewStore()
	var seen []TaskRecord
	s.SetTaskObserver(func(r *TaskRecord) { seen = append(seen, *r) })

	s.AddTask(TaskRecord{WorkflowID: "wf", TaskID: "a", Name: "map", StartedAt: 0, FinishedAt: 10})
	s.AddTask(TaskRecord{WorkflowID: "wf", TaskID: "b", Name: "reduce", Failed: true})

	if len(seen) != 2 {
		t.Fatalf("observer saw %d records, want 2", len(seen))
	}
	if seen[0].TaskID != "a" || seen[1].TaskID != "b" {
		t.Fatalf("observer order wrong: %v, %v", seen[0].TaskID, seen[1].TaskID)
	}
	if !seen[1].Failed {
		t.Fatal("failed record not delivered as failed")
	}
	if s.Len() != 2 {
		t.Fatalf("retention changed by observer: len=%d, want 2", s.Len())
	}
}
