// Package dag models scientific workflows as directed acyclic graphs of
// tasks with resource requests, nominal durations, and data sizes — the
// information the Common Workflow Scheduler Interface transfers from a WMS
// to a resource manager (§3.1: "input files, CPU, and memory requests, along
// with task-specific parameters").
package dag

import (
	"fmt"
	"slices"
)

// TaskID identifies a task within a workflow.
type TaskID string

// Task is one node of a workflow DAG.
type Task struct {
	ID   TaskID
	Name string // process/tool name; tasks sharing a Name share a runtime profile

	// Resource requests, as a WMS would declare them.
	Cores    int
	GPUs     int
	MemBytes float64
	// PeakMemBytes is the memory the task actually touches at peak; users
	// habitually over-request, so this is typically well below MemBytes.
	// Zero means 80 % of the request.
	PeakMemBytes float64

	// NominalDur is the task's duration in seconds on a reference machine
	// (cluster.NodeType.SpeedFactor == 1). Actual durations are scaled by
	// node speed and perturbed by the execution substrate.
	NominalDur float64
	// IOFrac is the fraction of NominalDur that is I/O-bound (scaled by a
	// node's IOFactor rather than SpeedFactor).
	IOFrac float64

	InputBytes  float64
	OutputBytes float64

	// Params are the task-specific parameters of the invocation (§3.1); the
	// CWS records them with each attempt's provenance.
	// For a WorkflowRef task they double as the binding parameters handed to
	// the registry compiler that materializes the referenced sub-workflow.
	Params map[string]string

	// Ref names a registered sub-workflow this node stands for. A task with
	// a non-empty Ref is a WorkflowRef: it carries no work of its own and is
	// replaced by the referenced workflow's tasks at expansion time (either
	// statically by compose.Registry.Expand or lazily by a RefExpander).
	// Resource fields are ignored on refs; InputBytes declares data bound
	// into the sub-workflow and is distributed onto its expanded roots.
	Ref string

	// Consumes and Produces declare data-flow types for edge inference:
	// compose.InferEdges connects each consumed type to the sibling task that
	// produces it, so composed workflows need no hand-written Stitch calls.
	Consumes []string
	Produces []string

	// Deps names the tasks this one depends on. Set it before Add; once the
	// task is in a workflow, change it only through Workflow.AddEdge, which
	// keeps the workflow's edge index in step.
	Deps []TaskID
}

// WorkflowRef returns a reference task: a node that expands into the named
// registered sub-workflow. params are the binding parameters forwarded to
// the registry compiler (nil is fine).
func WorkflowRef(id TaskID, ref string, params map[string]string) *Task {
	return &Task{ID: id, Name: ref, Ref: ref, Params: params}
}

// IsRef reports whether the task is a workflow reference.
func (t *Task) IsRef() bool { return t.Ref != "" }

// CPUSeconds returns the task's nominal core-seconds (duration × cores).
func (t *Task) CPUSeconds() float64 { return t.NominalDur * float64(maxInt(t.Cores, 1)) }

// PeakMem returns the actual peak memory (PeakMemBytes, defaulting to 80 %
// of the declared request).
func (t *Task) PeakMem() float64 {
	if t.PeakMemBytes > 0 {
		return t.PeakMemBytes
	}
	return t.MemBytes * 0.8
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Workflow is a named DAG of tasks, addressed by insertion position. Tasks
// live in one insertion-ordered slice and index is the only string-keyed
// structure: dependency edges are logged as index pairs in creation order and
// folded into compressed successor lists on the first structural read, so
// topological order, readiness and ranks are tables indexed by position.
type Workflow struct {
	Name  string
	list  []*Task
	index map[TaskID]int32
	// edges logs every dependency edge in creation order: each Add's deps in
	// order, then AddEdge calls as they come. A dep that names a task not
	// added yet is logged with from = -1 and listed in fwd until it resolves.
	edges []edge
	fwd   []fwdRef
	// kidStart and kids are the CSR successor lists derived from edges: the
	// successors of task i are kids[kidStart[i]:kidStart[i+1]], in
	// edge-creation order. linked reports whether they are current.
	kidStart []int32
	kids     []int32
	linked   bool
	// validated memoizes a successful Validate; any structural change
	// (Add, AddEdge) clears it. Runners validate per run, and revalidating
	// an unchanged DAG rebuilt nothing but a topological sort.
	validated bool
	// topo (with its positions in topoIdx) and roots memoize TopoOrder and
	// Roots under the same invalidation rule; every consumer (Validate,
	// CriticalPath, UpwardRanks, runners) only reads them, and each
	// workflow run re-derives both from the same unchanged DAG.
	topo    []*Task
	topoIdx []int32
	roots   []*Task
}

// edge is one logged dependency: task to depends on task from.
type edge struct{ from, to int32 }

// fwdRef is a logged edge whose dep was not in the workflow when logged.
type fwdRef struct {
	edge int32
	dep  TaskID
}

// New returns an empty workflow.
func New(name string) *Workflow {
	return NewSized(name, 0)
}

// NewSized returns an empty workflow presized for about taskHint tasks, so
// bulk construction (generators, format importers) skips the incremental map
// and slice growth of one-Add-at-a-time building.
func NewSized(name string, taskHint int) *Workflow {
	return newSized(name, taskHint, taskHint)
}

func newSized(name string, taskHint, edgeHint int) *Workflow {
	return &Workflow{
		Name:  name,
		list:  make([]*Task, 0, taskHint),
		index: make(map[TaskID]int32, taskHint),
		edges: make([]edge, 0, edgeHint),
	}
}

// Add inserts a task. It panics on duplicate IDs — workflow construction
// bugs should fail loudly at build time, not scheduling time.
func (w *Workflow) Add(t *Task) *Task {
	if t.ID == "" {
		panic("dag: task with empty ID")
	}
	if _, dup := w.index[t.ID]; dup {
		panic(fmt.Sprintf("dag: duplicate task ID %q", t.ID))
	}
	if t.Cores <= 0 {
		t.Cores = 1
	}
	i := int32(len(w.list))
	w.index[t.ID] = i
	w.list = append(w.list, t)
	for _, d := range t.Deps {
		from, ok := w.index[d]
		if !ok {
			from = -1
			w.fwd = append(w.fwd, fwdRef{int32(len(w.edges)), d})
		}
		w.edges = append(w.edges, edge{from, i})
	}
	w.changed()
	return t
}

// changed drops every structure derived from the edge log.
func (w *Workflow) changed() {
	w.linked, w.validated = false, false
	w.topo, w.topoIdx, w.roots = nil, nil, nil
}

// Task returns the task with the given ID, or nil.
func (w *Workflow) Task(id TaskID) *Task {
	if i, ok := w.index[id]; ok {
		return w.list[i]
	}
	return nil
}

// At returns the task at insertion position i.
func (w *Workflow) At(i int) *Task { return w.list[i] }

// AddEdge records that `to` depends on `from`, after both tasks have been
// inserted — the stitching primitive sub-workflow composition builds on.
// Duplicate edges are ignored. AddEdge does not check for cycles (that would
// be quadratic during bulk stitching); call Validate once stitching is done.
func (w *Workflow) AddEdge(from, to TaskID) error {
	fi, ok := w.index[from]
	if !ok {
		return fmt.Errorf("dag: edge from unknown task %q", from)
	}
	ti, ok := w.index[to]
	if !ok {
		return fmt.Errorf("dag: edge to unknown task %q", to)
	}
	if from == to {
		return fmt.Errorf("dag: self-edge on task %q", from)
	}
	t := w.list[ti]
	for _, d := range t.Deps {
		if d == from {
			return nil
		}
	}
	t.Deps = append(t.Deps, from)
	w.edges = append(w.edges, edge{fi, ti})
	w.changed()
	return nil
}

// link makes the successor lists current.
func (w *Workflow) link() {
	if !w.linked {
		w.build()
	}
}

// build resolves the forward references that now name a task and rebuilds
// the CSR successor lists from the edge log. A stable counting sort keeps
// each task's successors in edge-creation order; kidStart holds the counts
// and then serves as the fill cursor in place, so the build needs no scratch
// beyond the two tables it produces.
func (w *Workflow) build() {
	open := w.fwd[:0]
	for _, f := range w.fwd {
		if j, ok := w.index[f.dep]; ok {
			w.edges[f.edge].from = j
		} else {
			open = append(open, f)
		}
	}
	w.fwd = open
	n := len(w.list)
	start := make([]int32, n+1)
	for _, e := range w.edges {
		if e.from >= 0 {
			start[e.from+1]++
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	kids := make([]int32, start[n])
	for _, e := range w.edges {
		if e.from >= 0 {
			kids[start[e.from]] = e.to
			start[e.from]++
		}
	}
	// Each cursor now sits at the end of its list, the next list's start.
	copy(start[1:], start[:n])
	start[0] = 0
	w.kidStart, w.kids, w.linked = start, kids, true
}

// successors returns the positions of task i's direct successors in
// edge-creation order. The slice is the workflow's own and read-only.
func (w *Workflow) successors(i int32) []int32 {
	w.link()
	return w.kids[w.kidStart[i]:w.kidStart[i+1]]
}

// Len returns the number of tasks.
func (w *Workflow) Len() int { return len(w.list) }

// Tasks returns tasks in insertion order.
func (w *Workflow) Tasks() []*Task {
	out := make([]*Task, len(w.list))
	copy(out, w.list)
	return out
}

// Clone returns a structurally independent copy of the workflow: task
// structs and their Deps slices are copied, so edges added to the clone (by
// stitching or edge inference) never leak into the original. Params,
// Consumes, and Produces slices are shared — tasks never mutate them.
func (w *Workflow) Clone() *Workflow {
	out := NewSized(w.Name, w.Len())
	for _, t := range w.list {
		cp := *t
		cp.Deps = append([]TaskID(nil), cp.Deps...)
		out.Add(&cp)
	}
	return out
}

// Roots returns tasks with no dependencies, in insertion order. The result
// is memoized until the structure changes; callers must treat the returned
// slice as read-only.
func (w *Workflow) Roots() []*Task {
	if w.roots != nil {
		return w.roots
	}
	out := make([]*Task, 0, 4)
	for _, t := range w.list {
		if len(t.Deps) == 0 {
			out = append(out, t)
		}
	}
	w.roots = out
	return out
}

// Leaves returns tasks with no successors, in insertion order.
func (w *Workflow) Leaves() []*Task {
	w.link()
	var out []*Task
	for i, t := range w.list {
		if w.kidStart[i] == w.kidStart[i+1] {
			out = append(out, t)
		}
	}
	return out
}

// EdgeCount returns the number of dependency edges.
func (w *Workflow) EdgeCount() int { return len(w.edges) }

// Validate checks that all dependencies reference existing tasks and that
// the graph is acyclic. A successful result is memoized until the structure
// changes, so repeated validation of a shared workflow is free.
func (w *Workflow) Validate() error {
	if w.validated {
		return nil
	}
	w.link()
	if len(w.fwd) > 0 {
		// Some dep is still unknown; name the first in insertion order.
		for _, t := range w.list {
			for _, d := range t.Deps {
				if _, ok := w.index[d]; !ok {
					return fmt.Errorf("dag: task %q depends on unknown task %q", t.ID, d)
				}
			}
		}
	}
	if _, err := w.TopoOrder(); err != nil {
		return err
	}
	w.validated = true
	return nil
}

// TopoOrder returns tasks in a deterministic topological order (Kahn's
// algorithm with insertion-order tie-breaking) or an error if a cycle exists.
// The result is memoized until the structure changes; callers must treat the
// returned slice as read-only.
func (w *Workflow) TopoOrder() ([]*Task, error) {
	if w.topo != nil {
		return w.topo, nil
	}
	w.link()
	n := len(w.list)
	// In-degrees of workflows up to the stack buffer's size stay off the
	// heap. An unresolved dep is never released, so its task never becomes
	// ready and the workflow reports a cycle, as a dangling edge should.
	var buf [128]int32
	indeg := buf[:0]
	if n > len(buf) {
		indeg = make([]int32, 0, n)
	}
	// order doubles as Kahn's FIFO: positions before head are emitted.
	order := make([]int32, 0, n)
	for i, t := range w.list {
		indeg = append(indeg, int32(len(t.Deps)))
		if len(t.Deps) == 0 {
			order = append(order, int32(i))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, c := range w.successors(order[head]) {
			indeg[c]--
			if indeg[c] == 0 {
				order = append(order, c)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: workflow %q contains a cycle", w.Name)
	}
	out := make([]*Task, n)
	for k, i := range order {
		out[k] = w.list[i]
	}
	w.topo, w.topoIdx = out, order
	return out, nil
}

// topoPositions returns the memoized topological order as positions. It
// panics on cyclic workflows; call Validate first.
func (w *Workflow) topoPositions() []int32 {
	if _, err := w.TopoOrder(); err != nil {
		panic(err)
	}
	return w.topoIdx
}

// DurFn maps a task to an (estimated or actual) duration; rank and critical
// path computations are parameterized on it so they work with predictions.
type DurFn func(*Task) float64

// NominalDur is the DurFn that uses each task's declared nominal duration.
func NominalDur(t *Task) float64 { return t.NominalDur }

// CriticalPath returns the length of the longest path through the workflow
// under durations from fn, and the IDs along one such path in order. Among
// equally long predecessors the path takes the first in Deps order.
func (w *Workflow) CriticalPath(fn DurFn) (float64, []TaskID) {
	topo := w.topoPositions()
	dist := make([]float64, len(w.list))
	prev := make([]int32, len(w.list))
	best, bestAt := 0.0, int32(-1)
	for _, i := range topo {
		t := w.list[i]
		d, from := 0.0, int32(-1)
		for _, dep := range t.Deps {
			if j := w.index[dep]; dist[j] > d {
				d, from = dist[j], j
			}
		}
		dist[i] = d + fn(t)
		prev[i] = from
		if dist[i] > best {
			best, bestAt = dist[i], i
		}
	}
	var path []TaskID
	for i := bestAt; i >= 0; i = prev[i] {
		path = append(path, w.list[i].ID)
	}
	slices.Reverse(path) // root→leaf order
	return best, path
}

// UpwardRanks computes HEFT-style upward ranks: rank(t) = dur(t) +
// max over children c of rank(c). Higher rank = more critical. The result is
// indexed by insertion position (see Index) and is written into dst's
// storage when its capacity suffices; pass nil for a fresh slice.
// Communication costs are folded into fn if desired.
func (w *Workflow) UpwardRanks(dst []float64, fn DurFn) []float64 {
	topo := w.topoPositions()
	rank := slices.Grow(dst[:0], len(w.list))[:len(w.list)]
	for k := len(topo) - 1; k >= 0; k-- {
		i := topo[k]
		best := 0.0
		for _, c := range w.successors(i) {
			if rank[c] > best {
				best = rank[c]
			}
		}
		rank[i] = fn(w.list[i]) + best
	}
	return rank
}
