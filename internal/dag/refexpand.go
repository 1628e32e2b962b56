package dag

import (
	"fmt"
	"strings"
)

// RefExpander expands a workflow containing WorkflowRef tasks lazily at
// runtime: referenced sub-workflows splice into the frontier only as their
// inputs resolve, so a deep composition is never materialized as one flat
// task list. It implements the Expander contract exactly — Next yields tasks
// in precisely the order a WorkflowExpander over the statically expanded
// workflow (compose.Registry.Expand) would, with identical eager insertion
// indices, task IDs ("ref/nested/task" namespacing), and stitched
// InputBytes — so static and lazy expansion produce bit-identical run
// fingerprints (the equivalence the recursive golden battery pins).
//
// Construction resolves the *structure* of the reference tree up front —
// instance offsets, supplier counts, leaf fan-ins — because Total() must be
// known before the first emission (fault plans are drawn over it). Task
// structs themselves materialize only at emission and are recycled at
// Retire, and each distinct (name, params) template is resolved once and
// shared across every splice point.
type RefExpander struct {
	name    string
	resolve RefResolver

	infos map[*Workflow]*tmplInfo
	root  *refInstance
	total int

	skipped   []bool // by global (eager insertion) index
	ready     []readyEntry
	readyNext int
	scratch   []readyEntry
	inflight  map[TaskID]refSlot
	free      []*Task
}

// tmplInfo is the memoized expansion structure of one template workflow:
// everything about how its tasks map onto the expanded index space, shared
// by every instance of the template.
type tmplInfo struct {
	tasks   []*Task
	index   map[TaskID]int
	subInfo []*tmplInfo // per local index: resolved template info (nil for plain tasks)

	size   []int // expanded task count contributed by local task i
	offset []int // expanded offset of local task i within the template's block
	total  int   // expanded size of the whole template

	children [][]int32 // local consumer indices, ascending
	isLeaf   []bool    // no local consumers

	supCount []int32   // expanded supplier count from local deps
	refExtra []float64 // Σ expanded-leaf OutputBytes over ref deps (plain-task stitch)
	supOut   []float64 // Σ expanded output bytes over all deps (ref boundary stitch)

	leafCount int     // expanded leaves of the template
	leafOut   float64 // Σ OutputBytes over expanded leaves
}

// refInstance is one splice of a template into the expanded index space.
type refInstance struct {
	info     *tmplInfo
	ns       string // namespace prefix, "" or "ref/" / "ref/inner/"
	base     int    // global index of the instance's first expanded task
	parent   *refInstance
	refLocal int // local index of the ref task in parent.info (-1 for root)
	sub      map[int]*refInstance

	remaining []int32 // per local task: expanded suppliers still outstanding
	extSup    int32   // suppliers of the enclosing ref chain (added to local roots)

	deadMarked bool // whole instance written off by an upstream failure
}

type refSlot struct {
	inst  *refInstance
	local int32
}

type readyEntry struct {
	inst   *refInstance
	local  int32
	global int
}

// NewRefExpander validates w's reference graph (cycles, depth, collisions)
// against resolve and returns a lazy expander over it. maxDepth <= 0 means
// DefaultMaxRefDepth. The resolver must be deterministic and should return
// prepared templates (compiled, edge-inferred, validated) — the same
// workflows static expansion splices.
func NewRefExpander(w *Workflow, resolve RefResolver, maxDepth int) (*RefExpander, error) {
	if maxDepth <= 0 {
		maxDepth = DefaultMaxRefDepth
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateRefs(w, resolve, maxDepth); err != nil {
		return nil, err
	}
	x := &RefExpander{
		name:     w.Name,
		resolve:  resolve,
		infos:    make(map[*Workflow]*tmplInfo, 8),
		inflight: make(map[TaskID]refSlot, 64),
	}
	info, err := x.info(w)
	if err != nil {
		return nil, err
	}
	x.root = x.instantiate(info, "", 0, nil, -1)
	x.total = info.total
	x.skipped = make([]bool, x.total)
	x.collectRoots(x.root)
	return x, nil
}

// info builds (and memoizes) the expansion structure of one template. Every
// ref inside it is resolved here, so the whole reference tree is structurally
// known after the root call returns.
func (x *RefExpander) info(w *Workflow) (*tmplInfo, error) {
	if fi, ok := x.infos[w]; ok {
		return fi, nil
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	tasks := w.Tasks()
	n := len(tasks)
	fi := &tmplInfo{
		tasks:    tasks,
		index:    make(map[TaskID]int, n),
		subInfo:  make([]*tmplInfo, n),
		size:     make([]int, n),
		offset:   make([]int, n),
		children: make([][]int32, n),
		isLeaf:   make([]bool, n),
		supCount: make([]int32, n),
		refExtra: make([]float64, n),
		supOut:   make([]float64, n),
	}
	for i, t := range tasks {
		fi.index[t.ID] = i
	}
	for i, t := range tasks {
		if !t.IsRef() {
			continue
		}
		sub, err := x.resolve(t.Ref, t.Params)
		if err != nil {
			return nil, fmt.Errorf("dag: resolving ref %q in workflow %q: %w", t.ID, w.Name, err)
		}
		si, err := x.info(sub)
		if err != nil {
			return nil, err
		}
		fi.subInfo[i] = si
	}
	for i := range tasks {
		fi.offset[i] = fi.total
		if si := fi.subInfo[i]; si != nil {
			fi.size[i] = si.total
		} else {
			fi.size[i] = 1
		}
		fi.total += fi.size[i]
	}
	for ci, t := range tasks {
		for _, d := range t.Deps {
			fi.children[fi.index[d]] = append(fi.children[fi.index[d]], int32(ci))
		}
	}
	for i := range tasks {
		fi.isLeaf[i] = len(fi.children[i]) == 0
	}
	for i, t := range tasks {
		if !fi.isLeaf[i] {
			continue
		}
		if si := fi.subInfo[i]; si != nil {
			fi.leafCount += si.leafCount
			fi.leafOut += si.leafOut
		} else {
			fi.leafCount++
			fi.leafOut += t.OutputBytes
		}
	}
	for i, t := range tasks {
		for _, d := range t.Deps {
			pi := fi.index[d]
			if si := fi.subInfo[pi]; si != nil {
				fi.supCount[i] += int32(si.leafCount)
				fi.refExtra[i] += si.leafOut
				fi.supOut[i] += si.leafOut
			} else {
				fi.supCount[i]++
				fi.supOut[i] += tasks[pi].OutputBytes
			}
		}
	}
	if err := checkExpandedIDs(fi, w.Name); err != nil {
		return nil, err
	}
	x.infos[w] = fi
	return fi, nil
}

// checkExpandedIDs rejects templates whose expansion would produce duplicate
// namespaced IDs — a plain task named "uq/fit" next to a ref "uq" whose
// expansion also yields "uq/fit". Static expansion fails the same way via
// compose's collision checking; catching it here keeps the lazy path from
// silently corrupting its in-flight index.
func checkExpandedIDs(fi *tmplInfo, wf string) error {
	for ri, r := range fi.tasks {
		if fi.subInfo[ri] == nil {
			continue
		}
		prefix := string(r.ID) + "/"
		for ti, t := range fi.tasks {
			if ti == ri || !strings.HasPrefix(string(t.ID), prefix) {
				continue
			}
			suffix := string(t.ID)[len(prefix):]
			if fi.subInfo[ti] == nil {
				if expandedIDExists(fi.subInfo[ri], suffix) {
					return fmt.Errorf("dag: workflow %q: expanded task ID collision: %q already produced by ref %q (rename one of them)",
						wf, t.ID, r.ID)
				}
				continue
			}
			var ids []string
			expandedIDList(fi.subInfo[ti], "", &ids)
			for _, s := range ids {
				if expandedIDExists(fi.subInfo[ri], suffix+"/"+s) {
					return fmt.Errorf("dag: workflow %q: expanded task ID collision: %q from ref %q already produced by ref %q (rename one of them)",
						wf, prefix+suffix+"/"+s, t.ID, r.ID)
				}
			}
		}
	}
	return nil
}

func expandedIDExists(fi *tmplInfo, id string) bool {
	if i, ok := fi.index[TaskID(id)]; ok && fi.subInfo[i] == nil {
		return true
	}
	for i, t := range fi.tasks {
		if fi.subInfo[i] == nil {
			continue
		}
		p := string(t.ID) + "/"
		if strings.HasPrefix(id, p) && expandedIDExists(fi.subInfo[i], id[len(p):]) {
			return true
		}
	}
	return false
}

func expandedIDList(fi *tmplInfo, prefix string, out *[]string) {
	for i, t := range fi.tasks {
		if si := fi.subInfo[i]; si != nil {
			expandedIDList(si, prefix+string(t.ID)+"/", out)
		} else {
			*out = append(*out, prefix+string(t.ID))
		}
	}
}

// instantiate materializes the instance tree: one refInstance per splice
// point, each knowing its namespace, global base index, and the supplier
// count / byte bonus its expanded roots inherit from the enclosing ref chain.
func (x *RefExpander) instantiate(fi *tmplInfo, ns string, base int, parent *refInstance, refLocal int) *refInstance {
	inst := &refInstance{info: fi, ns: ns, base: base, parent: parent, refLocal: refLocal}
	if parent != nil {
		pfi := parent.info
		inst.extSup = pfi.supCount[refLocal]
		if len(pfi.tasks[refLocal].Deps) == 0 { // the ref is itself a root: inherit its chain
			inst.extSup += parent.extSup
		}
	}
	inst.remaining = make([]int32, len(fi.tasks))
	for i, t := range fi.tasks {
		inst.remaining[i] = fi.supCount[i]
		if len(t.Deps) == 0 {
			inst.remaining[i] += inst.extSup
		}
	}
	for i, t := range fi.tasks {
		if si := fi.subInfo[i]; si != nil {
			if inst.sub == nil {
				inst.sub = make(map[int]*refInstance, 4)
			}
			inst.sub[i] = x.instantiate(si, ns+string(t.ID)+"/", base+fi.offset[i], inst, i)
		}
	}
	return inst
}

// collectRoots seeds the ready FIFO with the expansion's dependency-free
// tasks, in global index order (template insertion order, refs inlined).
func (x *RefExpander) collectRoots(inst *refInstance) {
	for i, t := range inst.info.tasks {
		if len(t.Deps) != 0 {
			continue
		}
		if inst.info.subInfo[i] != nil {
			x.collectRoots(inst.sub[i])
			continue
		}
		x.ready = append(x.ready, readyEntry{inst, int32(i), inst.base + inst.info.offset[i]})
	}
}

// Name implements Expander.
func (x *RefExpander) Name() string { return x.name }

// Total implements Expander: the size of the full static expansion.
func (x *RefExpander) Total() int { return x.total }

// Next implements Expander, materializing the next ready task. Emitted tasks
// carry the statically-expanded identity: namespaced ID, the template's
// resource shape, and InputBytes with every boundary stitch applied (ref-dep
// leaf outputs, plus the enclosing ref chain's bound input and supplier
// outputs for instance roots). Deps are nil — streaming runners never read
// them, and the dependency structure lives in the expander itself.
func (x *RefExpander) Next() (*Task, int, bool) {
	if x.readyNext >= len(x.ready) {
		x.ready = x.ready[:0]
		x.readyNext = 0
		return nil, 0, false
	}
	e := x.ready[x.readyNext]
	x.readyNext++
	fi := e.inst.info
	tt := fi.tasks[e.local]
	t := x.alloc()
	*t = *tt
	t.ID = TaskID(e.inst.ns + string(tt.ID))
	t.Deps = nil
	t.InputBytes = tt.InputBytes + fi.refExtra[e.local]
	if len(tt.Deps) == 0 {
		// Instance roots collect the enclosing ref chain's bound input and
		// supplier output bytes. The additions replay static expansion's exact
		// order — innermost ref first, bound bytes then supplier sum, each as
		// one scalar addition — so the result is bit-identical under IEEE-754
		// (float addition is not associative; grouping matters).
		for inst := e.inst; inst.parent != nil; inst = inst.parent {
			pfi := inst.parent.info
			rt := pfi.tasks[inst.refLocal]
			t.InputBytes += rt.InputBytes
			t.InputBytes += pfi.supOut[inst.refLocal]
			if len(rt.Deps) != 0 { // the chain stops at a non-root ref
				break
			}
		}
	}
	x.inflight[t.ID] = refSlot{e.inst, e.local}
	return t, e.global, true
}

// TaskDone implements Expander. Newly ready tasks are gathered across every
// relation a completion can unlock — local successors, roots of a successor
// ref's instance, and (for expanded leaves) the enclosing ref's consumers —
// then appended in ascending global index order, which is exactly the
// edge-creation order of the statically expanded workflow.
func (x *RefExpander) TaskDone(id TaskID) {
	s, ok := x.inflight[id]
	if !ok {
		panic(fmt.Sprintf("dag: ref expander %q got a terminal report for unknown task %q", x.name, id))
	}
	delete(x.inflight, id)
	x.scratch = x.scratch[:0]
	x.propagate(s.inst, int(s.local))
	sortReady(x.scratch)
	x.ready = append(x.ready, x.scratch...)
}

func (x *RefExpander) propagate(inst *refInstance, local int) {
	fi := inst.info
	for _, c := range fi.children[local] {
		if fi.subInfo[c] != nil {
			x.decRoots(inst.sub[int(c)])
			continue
		}
		inst.remaining[c]--
		if inst.remaining[c] == 0 {
			g := inst.base + fi.offset[c]
			if !x.skipped[g] {
				x.scratch = append(x.scratch, readyEntry{inst, c, g})
			}
		}
	}
	if fi.isLeaf[local] && inst.parent != nil {
		x.propagate(inst.parent, inst.refLocal)
	}
}

// decRoots records one supplier completion against every expanded root of an
// instance — the lazy form of the Embed barrier, where each sub-root depends
// on every supplier of the enclosing ref.
func (x *RefExpander) decRoots(inst *refInstance) {
	fi := inst.info
	for i, t := range fi.tasks {
		if len(t.Deps) != 0 {
			continue
		}
		if fi.subInfo[i] != nil {
			x.decRoots(inst.sub[i])
			continue
		}
		inst.remaining[i]--
		if inst.remaining[i] == 0 {
			g := inst.base + fi.offset[i]
			if !x.skipped[g] {
				x.scratch = append(x.scratch, readyEntry{inst, int32(i), g})
			}
		}
	}
}

// sortReady orders newly readied entries by global index. Batches are the
// fan-out of one completion — small — so an insertion sort beats sort.Slice
// and allocates nothing.
func sortReady(s []readyEntry) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].global < s[j-1].global; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TaskFailed implements Expander: the transitive write-off over the expanded
// graph. A successor ref's whole instance is marked at once (every expanded
// root depends on the failed task), and expanded leaves propagate the walk
// past their enclosing ref's consumers — mirroring WorkflowExpander over the
// static expansion, including the newly-skipped count.
func (x *RefExpander) TaskFailed(id TaskID) int {
	s, ok := x.inflight[id]
	if !ok {
		panic(fmt.Sprintf("dag: ref expander %q got a terminal report for unknown task %q", x.name, id))
	}
	delete(x.inflight, id)
	return x.writeOff(s.inst, int(s.local))
}

func (x *RefExpander) writeOff(inst *refInstance, local int) int {
	n := 0
	fi := inst.info
	for _, c32 := range fi.children[local] {
		c := int(c32)
		if fi.subInfo[c] != nil {
			sub := inst.sub[c]
			if !sub.deadMarked {
				n += x.markInstance(sub)
				n += x.writeOff(inst, c) // continue past the ref to its consumers
			}
			continue
		}
		g := inst.base + fi.offset[c]
		if !x.skipped[g] {
			x.skipped[g] = true
			n++
			n += x.writeOff(inst, c)
		}
	}
	if fi.isLeaf[local] && inst.parent != nil {
		n += x.writeOff(inst.parent, inst.refLocal)
	}
	return n
}

func (x *RefExpander) markInstance(inst *refInstance) int {
	inst.deadMarked = true
	n := 0
	fi := inst.info
	for i := range fi.tasks {
		if fi.subInfo[i] != nil {
			if sub := inst.sub[i]; !sub.deadMarked {
				n += x.markInstance(sub)
			}
			continue
		}
		g := inst.base + fi.offset[i]
		if !x.skipped[g] {
			x.skipped[g] = true
			n++
		}
	}
	return n
}

// Retire implements Expander, recycling the emitted Task struct.
func (x *RefExpander) Retire(t *Task) {
	*t = Task{}
	x.free = append(x.free, t)
}

func (x *RefExpander) alloc() *Task {
	if n := len(x.free); n > 0 {
		t := x.free[n-1]
		x.free = x.free[:n-1]
		return t
	}
	return new(Task)
}
