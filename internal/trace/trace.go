// Package trace exports simulated executions as Chrome trace-event JSON
// (chrome://tracing / Perfetto), one lane per node, one complete event per
// task attempt. This gives the Gantt view Figures 4 and 5 are drawn from.
package trace

import (
	"encoding/json"
	"sort"

	"hhcw/internal/provenance"
)

// Event is one Chrome trace "complete" event (ph=X).
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Doc is a Chrome trace document.
type Doc struct {
	TraceEvents []Event        `json:"traceEvents"`
	Metadata    map[string]any `json:"metadata,omitempty"`
}

// FromProvenance builds a trace from a provenance store: every task attempt
// becomes an event in its node's lane; node lanes are stable (sorted by node
// name).
func FromProvenance(s *provenance.Store) *Doc {
	recs := s.All()
	nodes := map[string]int{}
	var names []string
	for _, r := range recs {
		if _, ok := nodes[r.Node]; !ok {
			nodes[r.Node] = 0
			names = append(names, r.Node)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		nodes[n] = i + 1
	}
	doc := &Doc{Metadata: map[string]any{"source": "hhcw provenance"}}
	for _, r := range recs {
		cat := "task"
		if r.Failed {
			cat = "failed"
		}
		args := map[string]any{
			"workflow": r.WorkflowID,
			"process":  r.Name,
			"attempt":  r.Attempt,
			"machine":  r.MachineType,
		}
		if r.Failed && r.Error != "" {
			args["error"] = r.Error
		}
		if r.RetryPolicy != "" {
			// Recovery metadata from the policy layer: how long the failed
			// attempt backed off before resubmission, and under which policy.
			args["retryDelaySec"] = r.RetryDelaySec
			args["retryPolicy"] = r.RetryPolicy
		}
		doc.TraceEvents = append(doc.TraceEvents, Event{
			Name: string(r.TaskID),
			Cat:  cat,
			Ph:   "X",
			TS:   float64(r.StartedAt) * 1e6,
			Dur:  float64(r.FinishedAt-r.StartedAt) * 1e6,
			PID:  1,
			TID:  nodes[r.Node],
			Args: args,
		})
	}
	// Chrome's trace viewer wants events in timestamp order; store order is
	// completion order, which interleaves lanes arbitrarily. Sort by (TS, TID)
	// so the output is stable and viewer-friendly.
	sort.SliceStable(doc.TraceEvents, func(i, j int) bool {
		a, b := doc.TraceEvents[i], doc.TraceEvents[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.TID < b.TID
	})
	return doc
}

// MarshalJSON renders the document.
func (d *Doc) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", " ")
}
