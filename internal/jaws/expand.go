package jaws

import (
	"fmt"
	"strconv"
	"strings"

	"hhcw/internal/dag"
)

// ScatterExpander streams the exact task sequence Compile would materialize,
// without ever holding more than the runnable frontier: shards come into
// existence as Next is called, and Retire recycles their Task structs once a
// runner is done with them. A million-shard scatter therefore costs O(defs +
// in-flight shards) memory instead of O(shards).
//
// The equivalence is structural, not incidental. Compile adds defs in
// Kahn-topological order and shards in index order; a shard of a scattered
// task depends on all shards of each dependency (gather semantics), so every
// shard of a def becomes ready at the same completion event, and a
// dag.WorkflowExpander over the compiled workflow emits def-by-def in Kahn
// order, shards in index order.
// The expander reproduces that order with per-def counters: a def's
// upstream count is the total shard count of its dependencies, decremented
// per completion; at zero the def enters the ready FIFO and its shards are
// emitted on demand. Expander equivalence against Compile + eager execution
// is pinned by tests over fault-free and faulty runs.
type ScatterExpander struct {
	def *WorkflowDef

	order []*TaskDef // Kahn order — Compile's insertion order
	base  []int      // eager insertion index of each def's shard 0
	total int        // shards to run: every shard but the call-cache hits

	// hit marks each def's call-cache hits (nil for a def without any). A
	// hit is settled as its def is emitted, never handed out.
	hit [][]bool

	// upstream counts remaining dependency-shard completions per def;
	// children lists dependent def positions (with After multiplicity), in
	// ascending Kahn order — the order eager edge creation yields.
	upstream []int
	children [][]int
	skipped  []bool

	// ready is the FIFO of defs whose shards are being emitted; emitCursor
	// is the next shard index of the front def.
	ready      []int
	readyNext  int
	emitCursor int

	// pos maps def names to Kahn positions; a terminal report's ID decodes
	// to (position, shard) through it unless it names the def located
	// resolved last (see locate). flights tracks each def's emitted shards
	// awaiting their report.
	pos     map[string]int
	located int
	flights []flight

	// ids renders the emitted shards' IDs.
	ids shardRenderer

	// free recycles Task structs handed back via Retire.
	free []*dag.Task
}

// idChunk is the size of the buffers shard IDs are carved from: a few
// hundred IDs share one allocation, and a chunk is freed once none of its
// IDs is referenced.
const idChunk = 4096

// shardRenderer renders shard IDs byte-identical to what Compile has always
// produced: the bare name for a single-shard def, else fmt's
// "%s/shard%04d". Compile and the streaming expander both render through
// it, so eager and streaming IDs cannot drift apart.
//
// A sharded ID is written into the current chunk and returned as a
// substring of it; bytes once written are never modified, and a chunk
// without room for the next ID is replaced rather than regrown, so IDs
// handed out earlier stay valid. Shards of one def are rendered in index
// order, so the ID of shard s is usually made from the last one rendered,
// shard s-1 of the same def, by incrementing its digits as they are copied
// (see successor). Any other ID — the first of a def, or the first after
// call-cache hits skipped shards — takes the full render.
type shardRenderer struct {
	chunk strings.Builder
	last  string // the last sharded ID rendered; "" before the first
	p, s  int    // its def's position and its shard index
}

// id returns the ID of shard s of the def at position p, named name, with
// the given shard count.
func (r *shardRenderer) id(p int, name string, shards, s int) dag.TaskID {
	if shards == 1 {
		return dag.TaskID(name)
	}
	b := &r.chunk
	if need := len(name) + len("/shard") + 20; b.Cap()-b.Len() < need {
		b.Reset()
		b.Grow(max(idChunk, need))
	}
	start := b.Len()
	if r.last != "" && p == r.p && s == r.s+1 {
		r.successor(len(name) + len("/shard"))
	} else {
		b.WriteString(name)
		b.WriteString("/shard")
		var d [20]byte
		digits := strconv.AppendInt(d[:0], int64(s), 10)
		for k := len(digits); k < 4; k++ {
			b.WriteByte('0')
		}
		b.Write(digits)
	}
	r.last, r.p, r.s = b.String()[start:], p, s
	return dag.TaskID(r.last)
}

// successor writes the ID after r.last, whose shard digits start at byte
// at: the trailing 9s become 0s and the digit before them is incremented,
// or, when every digit is 9, a 1 is put in front of the zeros (9999 turns
// into 10000).
func (r *shardRenderer) successor(at int) {
	prev, b := r.last, &r.chunk
	k := len(prev) - 1
	for k >= at && prev[k] == '9' {
		k--
	}
	if k < at {
		k = at - 1
		b.WriteString(prev[:at])
		b.WriteByte('1')
	} else {
		b.WriteString(prev[:k])
		b.WriteByte(prev[k] + 1)
	}
	for ; k < len(prev)-1; k++ {
		b.WriteByte('0')
	}
}

// flight tracks one def's emitted shards that await their terminal report
// as a window over shard indices: every shard below lo has reported, and
// reported[head+k] marks shard lo+k, for the shards emitted since. The window
// slides forward as its front reports, so it spans the shards from the
// oldest unreported one to the newest emitted, never the whole def.
// reported[:head] is the consumed prefix; emit compacts the window to the
// front of its array once that prefix is at least half the capacity, and a
// window that drains restarts at zero, so a sliding window reuses one array.
type flight struct {
	lo       int
	head     int
	reported []bool
}

// emit opens the next shard.
func (f *flight) emit() {
	if n := len(f.reported); n == cap(f.reported) && f.head > 0 && f.head >= n/2 {
		f.reported = f.reported[:copy(f.reported, f.reported[f.head:])]
		f.head = 0
	}
	f.reported = append(f.reported, false)
}

// report closes shard s. It returns false when s was never emitted or has
// already reported.
func (f *flight) report(s int) bool {
	k := f.head + s - f.lo
	if s < f.lo || k >= len(f.reported) || f.reported[k] {
		return false
	}
	f.reported[k] = true
	for f.head < len(f.reported) && f.reported[f.head] {
		f.head++
		f.lo++
	}
	if f.head == len(f.reported) {
		f.reported = f.reported[:0]
		f.head = 0
	}
	return true
}

// Expand returns a streaming expander over the def — the lazy counterpart of
// Compile. The workflow is validated first; the same descriptions compile
// and expand.
func (def *WorkflowDef) Expand() (*ScatterExpander, error) { return def.expand(nil) }

// expand is Expand with call caching: cached, when non-nil, reports whether
// shard s of task t is a cache hit. Hits are left out of Total and settled
// as their def is emitted, releasing dependents exactly as a completion
// would, so a run never submits them. TaskFailed's write-off counts whole
// defs, hits included: only the engine caches, and its runs rerun every
// failed shard, so they never fail terminally.
func (def *WorkflowDef) expand(cached func(t *TaskDef, s int) bool) (*ScatterExpander, error) {
	order, pos, err := def.order()
	if err != nil {
		return nil, err
	}
	n := len(order)
	x := &ScatterExpander{
		def:      def,
		order:    order,
		pos:      pos,
		base:     make([]int, n),
		hit:      make([][]bool, n),
		upstream: make([]int, n),
		children: make([][]int, n),
		skipped:  make([]bool, n),
		flights:  make([]flight, n),
	}
	idx := 0
	for p, t := range order {
		x.base[p] = idx
		idx += t.Shards()
		x.total += t.Shards()
		for s := 0; cached != nil && s < t.Shards(); s++ {
			if cached(t, s) {
				if x.hit[p] == nil {
					x.hit[p] = make([]bool, t.Shards())
				}
				x.hit[p][s] = true
				x.total--
			}
		}
	}
	// Iterating defs in ascending Kahn position keeps each children list
	// ascending without sorting — the same order eager edge creation yields.
	for p, t := range order {
		for _, d := range t.After {
			dp := pos[d]
			x.upstream[p] += order[dp].Shards()
			x.children[dp] = append(x.children[dp], p)
		}
		if len(t.After) == 0 {
			x.ready = append(x.ready, p)
		}
	}
	return x, nil
}

// Name implements dag.Expander.
func (x *ScatterExpander) Name() string { return x.def.Name }

// Total implements dag.Expander.
func (x *ScatterExpander) Total() int { return x.total }

// Next implements dag.Expander, materializing the front def's next shard.
func (x *ScatterExpander) Next() (*dag.Task, int, bool) {
	for x.readyNext < len(x.ready) {
		p := x.ready[x.readyNext]
		d := x.order[p]
		if x.emitCursor >= d.Shards() {
			x.readyNext++
			x.emitCursor = 0
			continue
		}
		s := x.emitCursor
		x.emitCursor++
		if h := x.hit[p]; h != nil && h[s] {
			x.flights[p].emit()
			x.flights[p].report(s)
			x.release(p)
			continue
		}
		t := x.grabTask()
		t.ID = x.ids.id(p, d.Name, d.Shards(), s)
		t.Name = d.Name
		t.Cores = d.Cores
		t.MemBytes = d.MemBytes
		t.NominalDur = d.DurationSec + d.OverheadSec
		x.flights[p].emit()
		return t, x.base[p] + s, true
	}
	x.ready = x.ready[:0]
	x.readyNext = 0
	return nil, 0, false
}

// locate decodes a shard ID into its def position and shard index — the
// inverse of shardRenderer.id. Def names never contain "/" (Validate rejects
// them), so the first "/" separates the name from the shard suffix. It tries
// the def it resolved last first, which in a scatter is the front of the
// ready FIFO: an ID that starts with that def's name and a "/" can belong to
// no other def. Any other ID is split at its "/" and its name looked up in
// pos. ok is false for any ID shardRenderer cannot produce for this
// workflow's defs.
func (x *ScatterExpander) locate(id dag.TaskID) (p, s int, ok bool) {
	if p = x.located; p < len(x.order) {
		if name := x.order[p].Name; len(id) > len(name) && id[len(name)] == '/' && string(id[:len(name)]) == name {
			s, ok = x.shard(p, string(id[len(name)+1:]))
			return p, s, ok
		}
	}
	name, suffix, sharded := strings.Cut(string(id), "/")
	p, ok = x.pos[name]
	if !ok {
		return 0, 0, false
	}
	x.located = p
	if !sharded {
		return p, 0, x.order[p].Shards() == 1
	}
	s, ok = x.shard(p, suffix)
	return p, s, ok
}

// shard parses the suffix after "/" of an ID of the def at position p into
// its shard index. ok is false unless the def is sharded and the suffix is
// "shard" followed by %04d's output.
func (x *ScatterExpander) shard(p int, suffix string) (s int, ok bool) {
	digits, ok := strings.CutPrefix(suffix, "shard")
	// %04d output: at least four digits, and no leading zero beyond them.
	if !ok || x.order[p].Shards() == 1 || len(digits) < 4 || len(digits) > 18 || (len(digits) > 4 && digits[0] == '0') {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		s = 10*s + int(c-'0')
	}
	return s, true
}

// settle closes the in-flight shard id and returns its def position. A
// report for a shard never emitted, or reported before, panics.
func (x *ScatterExpander) settle(id dag.TaskID) int {
	p, s, ok := x.locate(id)
	if !ok || !x.flights[p].report(s) {
		panic(fmt.Sprintf("jaws: expander %q got a terminal report for unknown shard %q", x.def.Name, id))
	}
	return p
}

// TaskDone implements dag.Expander.
func (x *ScatterExpander) TaskDone(id dag.TaskID) { x.release(x.settle(id)) }

// release counts one settled shard of def p against each dependent def,
// readying those it was the last upstream shard of.
func (x *ScatterExpander) release(p int) {
	for _, c := range x.children[p] {
		x.upstream[c]--
		if x.upstream[c] == 0 && !x.skipped[c] {
			x.ready = append(x.ready, c)
		}
	}
}

// TaskFailed implements dag.Expander: the def-granular transitive write-off.
// Gather semantics make it exact — every shard of a dependent def needs the
// failed shard, so whole defs are skipped, never fractions of one.
func (x *ScatterExpander) TaskFailed(id dag.TaskID) int {
	p := x.settle(id)
	n := 0
	var walk func(int)
	walk = func(from int) {
		for _, c := range x.children[from] {
			if x.skipped[c] {
				continue
			}
			x.skipped[c] = true
			n += x.order[c].Shards()
			walk(c)
		}
	}
	walk(p)
	return n
}

// Retire implements dag.Expander, recycling the shard's Task struct.
func (x *ScatterExpander) Retire(t *dag.Task) { x.free = append(x.free, t) }

func (x *ScatterExpander) grabTask() *dag.Task {
	if n := len(x.free); n > 0 {
		t := x.free[n-1]
		x.free = x.free[:n-1]
		*t = dag.Task{}
		return t
	}
	return &dag.Task{}
}
