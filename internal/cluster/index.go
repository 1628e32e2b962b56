package cluster

// Incrementally maintained free-capacity index. Scheduling a dense pending
// queue previously rescanned every node per submission — O(pending × nodes)
// per dispatch round. The index is a binary segment tree over the node array
// (leaves in node-ID order); each internal segment stores the per-dimension
// maxima (free cores, free GPUs, free memory) of its subtree, with down
// nodes contributing zero capacity, plus a "whole node idle" flag for the
// batch manager's node-granular backfill.
//
// Queries descend only into segments whose maxima can satisfy the request,
// so they visit feasible nodes in exactly the order the old full scan did —
// ascending node ID — which is what keeps first-fit, round-robin, and every
// other deterministic tie-break byte-identical to the rescan kernel.
//
// The tree is refreshed per query, not per change. Each of the four mutation
// points (Allocate, Release, FailNode, RepairNode) updates the node's free
// counters at once and only marks its leaf stale, listing the node once
// however often it changes. Every query (AppendCandidates, FirstFit,
// AppendIdleNodes) first rewrites each stale leaf from its node and climbs
// until a segment's maxima and idle flag come out unchanged, so a query
// always reads a tree equal to one rebuilt from the counters, and a cohort
// of completions costs one climb per node instead of one per release.
type capIndex struct {
	nodes []*Node // leaves, in ID order
	base  int     // first leaf position (power of two ≥ len(nodes))

	// stale lists, once each, the IDs of the nodes changed since the last
	// refresh (Node.stale marks them). Its capacity is the node count, so
	// it never grows.
	stale []int

	// Per-segment maxima over the subtree, indexed like a binary heap:
	// segment i has children 2i and 2i+1; leaves start at base.
	maxCores []int
	maxGPUs  []int
	maxMem   []float64
	// anyIdle is 1 when some subtree leaf is an up node with every core
	// free — the batch manager's definition of a free node.
	anyIdle []uint8
}

func newCapIndex(nodes []*Node) *capIndex {
	base := 1
	for base < len(nodes) {
		base *= 2
	}
	// One allocation backs both integer maxima and the stale list.
	ints := make([]int, 4*base+len(nodes))
	ix := &capIndex{
		nodes:    nodes,
		base:     base,
		maxCores: ints[: 2*base : 2*base],
		maxGPUs:  ints[2*base : 4*base : 4*base],
		stale:    ints[4*base : 4*base],
		maxMem:   make([]float64, 2*base),
		anyIdle:  make([]uint8, 2*base),
	}
	for i, n := range nodes {
		ix.writeLeaf(i, n)
	}
	for i := base - 1; i >= 1; i-- {
		ix.pull(i)
	}
	return ix
}

// reset rebuilds the whole tree in place over the same backing arrays, for
// use after the node ledger has been bulk-reset, leaving nothing stale.
// Padding leaves past len(nodes) were zeroed at construction and are never
// written, so they stay correct.
func (ix *capIndex) reset() {
	for _, id := range ix.stale {
		ix.nodes[id].stale = false
	}
	ix.stale = ix.stale[:0]
	for i, n := range ix.nodes {
		ix.writeLeaf(i, n)
	}
	for i := ix.base - 1; i >= 1; i-- {
		ix.pull(i)
	}
}

func (ix *capIndex) writeLeaf(i int, n *Node) {
	p := ix.base + i
	if n.down {
		ix.maxCores[p], ix.maxGPUs[p], ix.maxMem[p], ix.anyIdle[p] = 0, 0, 0, 0
		return
	}
	ix.maxCores[p] = n.freeCores
	ix.maxGPUs[p] = n.freeGPUs
	ix.maxMem[p] = n.freeMem
	// Mirrors the batch manager's historical predicate exactly: a node is
	// "idle" when all cores are free, regardless of GPU/memory state.
	if n.freeCores == n.Type.Cores {
		ix.anyIdle[p] = 1
	} else {
		ix.anyIdle[p] = 0
	}
}

// pull recomputes segment i from its children and reports whether any of
// its four fields changed.
func (ix *capIndex) pull(i int) bool {
	l, r := 2*i, 2*i+1
	c := ix.maxCores[l]
	if ix.maxCores[r] > c {
		c = ix.maxCores[r]
	}
	g := ix.maxGPUs[l]
	if ix.maxGPUs[r] > g {
		g = ix.maxGPUs[r]
	}
	m := ix.maxMem[l]
	if ix.maxMem[r] > m {
		m = ix.maxMem[r]
	}
	idle := ix.anyIdle[l] | ix.anyIdle[r]
	if c == ix.maxCores[i] && g == ix.maxGPUs[i] && m == ix.maxMem[i] && idle == ix.anyIdle[i] {
		return false
	}
	ix.maxCores[i], ix.maxGPUs[i], ix.maxMem[i], ix.anyIdle[i] = c, g, m, idle
	return true
}

// update marks node n's leaf stale after a change to its counters; the next
// query refreshes it.
func (ix *capIndex) update(n *Node) {
	if !n.stale {
		n.stale = true
		ix.stale = append(ix.stale, n.ID)
	}
}

// refresh brings the tree up to date before a query. It is small enough to
// inline, so a query with nothing stale pays one length test.
func (ix *capIndex) refresh() {
	if len(ix.stale) > 0 {
		ix.refreshStale()
	}
}

// refreshStale rewrites every stale leaf from its node and climbs from each,
// stopping at the first segment whose fields come out unchanged: every
// ancestor above it depends only on its children, so it is already correct.
// Leaves are taken one at a time, and after each climb the tree agrees with
// every leaf written so far, so the order does not matter.
func (ix *capIndex) refreshStale() {
	for _, id := range ix.stale {
		n := ix.nodes[id]
		n.stale = false
		ix.writeLeaf(id, n)
		for i := (ix.base + id) / 2; i >= 1 && ix.pull(i); i /= 2 {
		}
	}
	ix.stale = ix.stale[:0]
}

// appendFeasible appends, in leaf order, every up node of the subtree rooted
// at seg that can fit the request. Recursion carries the destination slice
// instead of a capturing closure, so the dispatch hot path allocates nothing
// per query.
func (ix *capIndex) appendFeasible(dst []*Node, seg, cores, gpus int, mem float64) []*Node {
	if ix.maxCores[seg] < cores || ix.maxGPUs[seg] < gpus || ix.maxMem[seg] < mem {
		return dst
	}
	if seg >= ix.base {
		// A down leaf holds zero maxima, which a zero-sized request still
		// "fits"; only up nodes are candidates.
		if i := seg - ix.base; i < len(ix.nodes) && !ix.nodes[i].down {
			dst = append(dst, ix.nodes[i])
		}
		return dst
	}
	dst = ix.appendFeasible(dst, 2*seg, cores, gpus, mem)
	return ix.appendFeasible(dst, 2*seg+1, cores, gpus, mem)
}

// firstFit returns the leftmost up node with index ≥ from in the subtree
// rooted at seg, which covers leaf indices [lo, lo+width), that can fit the
// request — the first node appendFeasible would append, found without
// building the list. Subtrees wholly left of from or whose maxima cannot
// satisfy the request are never entered.
func (ix *capIndex) firstFit(seg, lo, width, from, cores, gpus int, mem float64) *Node {
	if lo+width <= from || ix.maxCores[seg] < cores || ix.maxGPUs[seg] < gpus || ix.maxMem[seg] < mem {
		return nil
	}
	if seg >= ix.base {
		if lo < len(ix.nodes) && !ix.nodes[lo].down {
			return ix.nodes[lo]
		}
		return nil
	}
	width /= 2
	if n := ix.firstFit(2*seg, lo, width, from, cores, gpus, mem); n != nil {
		return n
	}
	return ix.firstFit(2*seg+1, lo+width, width, from, cores, gpus, mem)
}

// appendIdle appends, in leaf order, every wholly-idle up node of the
// subtree rooted at seg.
func (ix *capIndex) appendIdle(dst []*Node, seg int) []*Node {
	if ix.anyIdle[seg] == 0 {
		return dst
	}
	if seg >= ix.base {
		if i := seg - ix.base; i < len(ix.nodes) {
			dst = append(dst, ix.nodes[i])
		}
		return dst
	}
	dst = ix.appendIdle(dst, 2*seg)
	return ix.appendIdle(dst, 2*seg+1)
}

// AppendCandidates appends to dst every up node that can currently fit
// (cores, gpus, mem), in ascending node-ID order — the order the historical
// full scan over Nodes() produced — and returns it. Subtrees that cannot
// satisfy the request are skipped, and a reused dst makes the query
// allocation-free.
func (c *Cluster) AppendCandidates(dst []*Node, cores, gpus int, mem float64) []*Node {
	if len(c.nodes) == 0 {
		return dst
	}
	c.idx.refresh()
	return c.idx.appendFeasible(dst, 1, cores, gpus, mem)
}

// FirstFit returns the lowest-ID up node with ID ≥ from that can currently
// fit (cores, gpus, mem), or nil. With from = 0 it is exactly
// AppendCandidates(nil, cores, gpus, mem)[0]; a larger from resumes the
// search past a node the caller has ruled out. It descends the index without
// materializing any candidate list: O(log N) whenever one node holds every
// maximum it passes, and never more work than AppendCandidates.
func (c *Cluster) FirstFit(from, cores, gpus int, mem float64) *Node {
	if from >= len(c.nodes) {
		return nil
	}
	c.idx.refresh()
	return c.idx.firstFit(1, 0, c.idx.base, from, cores, gpus, mem)
}

// AppendIdleNodes appends to dst every up node with all cores free (the
// batch manager's whole-node-free predicate), in ascending node-ID order,
// and returns it.
func (c *Cluster) AppendIdleNodes(dst []*Node) []*Node {
	if len(c.nodes) == 0 {
		return dst
	}
	c.idx.refresh()
	return c.idx.appendIdle(dst, 1)
}
