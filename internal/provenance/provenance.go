// Package provenance implements the centralized provenance store §3.3
// argues the CWS should be: because the CWSI sits between every WMS and the
// resource manager, it sees both the workflow structure (from the WMS) and
// the node-level traces (from the resource manager), and can persist them
// uniformly across engines. Records feed the predictors (internal/predict)
// and export to a W3C-PROV-flavoured JSON document.
package provenance

import (
	"encoding/json"
	"fmt"
	"sort"

	"hhcw/internal/dag"
	"hhcw/internal/sim"
)

// TaskRecord is one task execution attempt as seen by the CWS.
type TaskRecord struct {
	WorkflowID string
	TaskID     dag.TaskID
	Name       string // process/tool name
	Attempt    int

	SubmittedAt sim.Time
	StartedAt   sim.Time
	FinishedAt  sim.Time

	Node        string
	MachineType string
	SpeedFactor float64

	Cores       int
	MemRequest  float64
	PeakMem     float64
	InputBytes  float64
	OutputBytes float64

	Failed bool
	Error  string

	// Recovery-policy metadata, set via AnnotateRetry on failed attempts the
	// policy decided to resubmit: the backoff delay chosen before the next
	// attempt and a rendering of the policy that chose it.
	RetryDelaySec float64
	RetryPolicy   string

	Params map[string]string
}

// Runtime returns the execution wall time.
func (r TaskRecord) Runtime() sim.Time { return r.FinishedAt - r.StartedAt }

// NodeEvent is a resource-manager-side trace entry (node up/down), the data
// "the resource manager traces" that a WMS alone cannot see (§3.3).
type NodeEvent struct {
	At   sim.Time
	Node string
	Kind string // "down" | "up"
}

// refAgg is the running reference-runtime aggregate for one process name:
// speed-normalized runtimes of successful executions, accumulated in
// insertion order so the mean is bit-identical to a rescan.
type refAgg struct {
	sum float64
	n   int
}

// statAgg is the running StatsByName aggregate for one process name,
// maintained incrementally so per-name summaries cost O(1) per query
// instead of a full record scan.
type statAgg struct {
	execs    int
	failures int
	ok       int
	sumRT    float64
	sumMem   float64
	maxRT    float64
}

// nameAgg is one process name's slot: both running aggregates, reached by a
// single name lookup per record.
type nameAgg struct {
	name string
	stat statAgg
	ref  refAgg
}

// Store is the central provenance store: the task records, a running
// aggregate per process name, node events and the registered workflows'
// structure.
//
// nameSlot maps each process name to its aggregate's slot in names, so a
// record costs one name lookup.
type Store struct {
	records    []TaskRecord
	nameSlot   map[string]int32
	names      []nameAgg
	nodeEvents []NodeEvent
	workflows  map[string]*dag.Workflow
	// observer, when set, sees every record AddTask ingests (see
	// SetTaskObserver).
	observer func(*TaskRecord)
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		// A store that records anything records at least a workflow's worth
		// of tasks; skip the first several append-doublings.
		records:   make([]TaskRecord, 0, 64),
		nameSlot:  map[string]int32{},
		workflows: map[string]*dag.Workflow{},
	}
}

// Reset empties the store in place: records, aggregates, node events, and
// registered workflows are all cleared with their backing capacity
// retained. The task observer survives: it is construction-time wiring (the
// CWS trains predictors through it) and warm sessions must not re-register
// it.
func (s *Store) Reset() {
	clear(s.records)
	s.records = s.records[:0]
	clear(s.nameSlot)
	clear(s.names)
	s.names = s.names[:0]
	s.nodeEvents = s.nodeEvents[:0]
	clear(s.workflows)
}

// RegisterWorkflow stores workflow structure for the export's dependency
// listing (ExportPROV).
func (s *Store) RegisterWorkflow(id string, w *dag.Workflow) {
	s.workflows[id] = w
}

// ReleaseWorkflow drops the registered workflow structure for id, once an
// open-system service has finished with the workflow. Task records and
// aggregates are untouched; ExportPROV no longer lists the workflow's
// dependencies. A service admitting workflows per arrival pairs each
// RegisterWorkflow with a release so structure memory stays O(in-flight),
// not O(arrivals).
func (s *Store) ReleaseWorkflow(id string) { delete(s.workflows, id) }

// SetTaskObserver installs a hook invoked with every record AddTask
// ingests, as stored; the record is the observer's to read during the call
// only. This is the §3.4 provenance→prediction feed: online predictors
// subscribe here and train as attempts complete.
func (s *Store) SetTaskObserver(fn func(*TaskRecord)) { s.observer = fn }

// AddTask appends a task execution record, folds it into its process
// name's aggregates, and returns the record's index (see AnnotateRetry).
func (s *Store) AddTask(r TaskRecord) int {
	idx := len(s.records)
	s.records = append(s.records, r)
	if s.observer != nil {
		s.observer(&s.records[idx])
	}
	na := &s.names[s.nameOf(r.Name)]
	st := &na.stat
	st.execs++
	if r.Failed {
		st.failures++
		return idx
	}
	rt := float64(r.Runtime())
	st.ok++
	st.sumRT += rt
	st.sumMem += r.PeakMem
	if rt > st.maxRT {
		st.maxRT = rt
	}

	sf := r.SpeedFactor
	if sf <= 0 {
		sf = 1
	}
	na.ref.sum += float64(r.Runtime()) * sf
	na.ref.n++
	return idx
}

// nameOf returns name's slot, opening one on first sight.
func (s *Store) nameOf(name string) int32 {
	i, ok := s.nameSlot[name]
	if !ok {
		i = int32(len(s.names))
		s.nameSlot[name] = i
		s.names = append(s.names, nameAgg{name: name})
	}
	return i
}

// MeanRefRuntime returns the running mean of the speed-normalized runtimes
// of name's successful executions (ok=false before any). Accumulation order
// matches insertion order, so the result is bit-identical to rescanning the
// records — but O(1) per call.
func (s *Store) MeanRefRuntime(name string) (float64, bool) {
	i, ok := s.nameSlot[name]
	if !ok || s.names[i].ref.n == 0 {
		return 0, false
	}
	a := s.names[i].ref
	return a.sum / float64(a.n), true
}

// AddNodeEvent appends a node trace entry.
func (s *Store) AddNodeEvent(e NodeEvent) { s.nodeEvents = append(s.nodeEvents, e) }

// AnnotateRetry attaches recovery metadata to the failed record at index
// i, as AddTask returned it: the policy chose to resubmit that attempt
// after delaySec of backoff.
func (s *Store) AnnotateRetry(i int, delaySec float64, policy string) {
	r := &s.records[i]
	r.RetryDelaySec = delaySec
	r.RetryPolicy = policy
}

// Len returns the number of task records.
func (s *Store) Len() int { return len(s.records) }

// All returns a copy of all task records.
func (s *Store) All() []TaskRecord { return append([]TaskRecord(nil), s.records...) }

// Stats summarizes one process name across executions.
type Stats struct {
	Name        string
	Executions  int
	Failures    int
	MeanRuntime float64
	MaxRuntime  float64
	MeanPeakMem float64
}

// StatsByName returns per-process summaries sorted by name, read from the
// running aggregates — O(names), not O(records).
func (s *Store) StatsByName() []Stats {
	out := make([]Stats, 0, len(s.names))
	for _, na := range s.names {
		a := na.stat
		st := Stats{
			Name:       na.name,
			Executions: a.execs,
			Failures:   a.failures,
			MaxRuntime: a.maxRT,
		}
		if a.ok > 0 {
			st.MeanRuntime = a.sumRT / float64(a.ok)
			st.MeanPeakMem = a.sumMem / float64(a.ok)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// provDoc is the W3C-PROV-flavoured export schema.
type provDoc struct {
	Prefix     map[string]string    `json:"prefix"`
	Activity   map[string]provItem  `json:"activity"`
	Entity     map[string]provItem  `json:"entity"`
	WasGenBy   map[string]provRel   `json:"wasGeneratedBy"`
	Used       map[string]provRel   `json:"used"`
	NodeTraces []map[string]any     `json:"nodeTraces"`
	Workflows  map[string][]provDep `json:"workflows"`
}

type provItem map[string]any

type provRel struct {
	Activity string `json:"prov:activity"`
	Entity   string `json:"prov:entity"`
}

type provDep struct {
	Task string   `json:"task"`
	Deps []string `json:"deps"`
}

// ExportPROV serializes the store to a W3C-PROV-flavoured JSON document so
// provenance "will be available across different WMS" (§3.3).
func (s *Store) ExportPROV() ([]byte, error) {
	doc := provDoc{
		Prefix:    map[string]string{"cws": "https://example.org/cws#"},
		Activity:  map[string]provItem{},
		Entity:    map[string]provItem{},
		WasGenBy:  map[string]provRel{},
		Used:      map[string]provRel{},
		Workflows: map[string][]provDep{},
	}
	for i, r := range s.records {
		aid := fmt.Sprintf("cws:%s/%s#%d", r.WorkflowID, r.TaskID, r.Attempt)
		item := provItem{
			"cws:name":       r.Name,
			"prov:startTime": float64(r.StartedAt),
			"prov:endTime":   float64(r.FinishedAt),
			"cws:node":       r.Node,
			"cws:failed":     r.Failed,
		}
		if r.RetryPolicy != "" {
			item["cws:retryDelaySec"] = r.RetryDelaySec
			item["cws:retryPolicy"] = r.RetryPolicy
		}
		doc.Activity[aid] = item
		eid := fmt.Sprintf("cws:data/%s/%s", r.WorkflowID, r.TaskID)
		doc.Entity[eid] = provItem{"cws:bytes": r.OutputBytes}
		doc.WasGenBy[fmt.Sprintf("g%d", i)] = provRel{Activity: aid, Entity: eid}
	}
	for _, e := range s.nodeEvents {
		doc.NodeTraces = append(doc.NodeTraces, map[string]any{
			"at": float64(e.At), "node": e.Node, "kind": e.Kind,
		})
	}
	for id, w := range s.workflows {
		for _, t := range w.Tasks() {
			deps := make([]string, len(t.Deps))
			for i, d := range t.Deps {
				deps[i] = string(d)
			}
			doc.Workflows[id] = append(doc.Workflows[id], provDep{Task: string(t.ID), Deps: deps})
		}
	}
	return json.MarshalIndent(doc, "", "  ")
}
