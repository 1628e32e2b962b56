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

// wfAgg is one workflow's slot: its record index list and its tenant slot,
// resolved at the workflow's first attributed record (-1 until then).
type wfAgg struct {
	recs   []int
	tenant int32
}

// Store is the central provenance store.
//
// Every per-record aggregate lives in a dense slot table reached by one map
// lookup: nameSlot maps each process name to its slot in names, wfSlot each
// workflow ID to its slot in wfs, tenantSlot each tenant to its slot in
// tenants.
type Store struct {
	records    []TaskRecord
	nameSlot   map[string]int32
	names      []nameAgg
	wfSlot     map[string]int32
	wfs        []wfAgg
	nodeEvents []NodeEvent
	workflows  map[string]*dag.Workflow
	// Tenant dimension (see SetTenantResolver): running per-tenant
	// aggregates, O(tenants).
	tenantOf   func(wfID string) string
	tenantSlot map[string]int32
	tenants    []tenantAgg
	// observer, when set, sees every record AddTask ingests (see
	// SetTaskObserver).
	observer func(TaskRecord)
	// freeIdx recycles the workflows' index lists across Reset: warm sessions
	// replay the same workflows in the same order, and Reset pushes the lists
	// back in reverse, so each workflow of a replay draws exactly the
	// capacity it filled last run.
	freeIdx [][]int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		// A store that records anything records at least a workflow's worth
		// of tasks; skip the first several append-doublings.
		records:   make([]TaskRecord, 0, 64),
		nameSlot:  map[string]int32{},
		wfSlot:    map[string]int32{},
		workflows: map[string]*dag.Workflow{},
	}
}

// Reset empties the store in place: records, indexes, aggregates, node
// events, and registered workflows are all cleared with their backing
// capacity retained, and the per-run configuration (the tenant resolver)
// reverts to the just-constructed default. The task observer survives:
// it is construction-time wiring (the CWS trains predictors through it) and
// warm sessions must not re-register it.
func (s *Store) Reset() {
	clear(s.records)
	s.records = s.records[:0]
	for i := len(s.wfs) - 1; i >= 0; i-- {
		s.freeIdx = append(s.freeIdx, s.wfs[i].recs[:0])
	}
	clear(s.nameSlot)
	clear(s.names)
	s.names = s.names[:0]
	clear(s.wfSlot)
	clear(s.wfs)
	s.wfs = s.wfs[:0]
	s.nodeEvents = s.nodeEvents[:0]
	clear(s.workflows)
	s.tenantOf = nil
	clear(s.tenantSlot)
	clear(s.tenants)
	s.tenants = s.tenants[:0]
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

// SetTenantResolver installs the workflow-ID→tenant mapping that turns on
// the per-tenant running aggregates. Must be set before the records it
// should classify arrive; records added while no resolver is installed are
// not attributed. The service layer names workflows "tenant/wf-N" and
// resolves by prefix.
func (s *Store) SetTenantResolver(fn func(wfID string) string) {
	s.tenantOf = fn
	if s.tenantSlot == nil {
		s.tenantSlot = map[string]int32{}
	}
	for i := range s.wfs {
		s.wfs[i].tenant = -1 // resolved by the previous resolver
	}
}

// tenantAgg is the per-tenant running aggregate, folded on every AddTask.
type tenantAgg struct {
	tenant   string
	execs    int
	failures int
	started  int
	waitSum  float64
	coreSec  float64
}

// TenantStats summarizes one tenant's footprint across all its workflows.
type TenantStats struct {
	Tenant       string
	Executions   int     // terminal attempts observed
	Failures     int     // failed attempts
	Started      int     // attempts that reached a node
	QueueWaitSum float64 // Σ (StartedAt−SubmittedAt) over started attempts
	CoreSeconds  float64 // Σ cores×runtime over successful attempts
}

// StatsByTenant returns per-tenant summaries sorted by tenant ID, read from
// the running aggregates — O(tenants).
func (s *Store) StatsByTenant() []TenantStats {
	out := make([]TenantStats, 0, len(s.tenants))
	for _, a := range s.tenants {
		out = append(out, TenantStats{
			Tenant: a.tenant, Executions: a.execs, Failures: a.failures,
			Started: a.started, QueueWaitSum: a.waitSum, CoreSeconds: a.coreSec,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// SetTaskObserver installs a hook invoked with every record AddTask
// ingests. This is the §3.4 provenance→prediction feed: online predictors
// subscribe here and train as attempts complete.
func (s *Store) SetTaskObserver(fn func(TaskRecord)) { s.observer = fn }

// AddTask appends a task execution record and folds it into the per-name,
// per-workflow and per-tenant aggregates: one lookup per key, each reaching
// a dense slot.
func (s *Store) AddTask(r TaskRecord) {
	if s.observer != nil {
		s.observer(r)
	}
	na := &s.names[s.nameOf(r.Name)]
	idx := len(s.records)
	s.records = append(s.records, r)
	wf := &s.wfs[s.wfOf(r.WorkflowID)]
	wf.recs = append(wf.recs, idx)
	tenant := int32(-1)
	if s.tenantOf != nil {
		if wf.tenant < 0 {
			wf.tenant = s.tenantIdx(s.tenantOf(r.WorkflowID))
		}
		tenant = wf.tenant
	}

	if tenant >= 0 {
		a := &s.tenants[tenant]
		a.execs++
		if r.Failed {
			a.failures++
		}
		if r.Node != "" { // an attempt that never reached a node has no wait
			a.started++
			a.waitSum += float64(r.StartedAt - r.SubmittedAt)
			if !r.Failed {
				a.coreSec += float64(r.Cores) * float64(r.Runtime())
			}
		}
	}

	st := &na.stat
	st.execs++
	if r.Failed {
		st.failures++
		return
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

// wfOf returns workflow id's slot, opening one (with its index list) on
// first sight.
func (s *Store) wfOf(id string) int32 {
	i, ok := s.wfSlot[id]
	if !ok {
		i = int32(len(s.wfs))
		s.wfSlot[id] = i
		// Take a zero-length, capacity-bearing list from the Reset harvest,
		// or nil when the pool is dry (a fresh key on a cold store).
		var recs []int
		if n := len(s.freeIdx); n > 0 {
			recs = s.freeIdx[n-1]
			s.freeIdx = s.freeIdx[:n-1]
		}
		s.wfs = append(s.wfs, wfAgg{recs: recs, tenant: -1})
	}
	return i
}

// tenantIdx returns tenant's slot, opening one on first sight.
func (s *Store) tenantIdx(tenant string) int32 {
	i, ok := s.tenantSlot[tenant]
	if !ok {
		i = int32(len(s.tenants))
		s.tenantSlot[tenant] = i
		s.tenants = append(s.tenants, tenantAgg{tenant: tenant})
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

// AnnotateRetry attaches recovery metadata to the most recent failed record
// of (wfID, taskID): the policy chose to resubmit that attempt after
// delaySec of backoff. It reports whether a matching record was found.
func (s *Store) AnnotateRetry(wfID string, taskID dag.TaskID, delaySec float64, policy string) bool {
	var idx []int
	if w, ok := s.wfSlot[wfID]; ok {
		idx = s.wfs[w].recs
	}
	for i := len(idx) - 1; i >= 0; i-- {
		r := &s.records[idx[i]]
		if r.TaskID == taskID && r.Failed {
			r.RetryDelaySec = delaySec
			r.RetryPolicy = policy
			return true
		}
	}
	return false
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
