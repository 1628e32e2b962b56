package cluster

import (
	"testing"

	"hhcw/internal/metrics"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// The capacity index must be indistinguishable from a naive rescan of the
// node array at every moment — the scheduler's determinism guarantee rests
// on it. These tests drive random mutation tapes (allocate / release / fail
// / repair, including a full-outage storm) and compare every query form —
// AppendCandidates, AppendIdleNodes and FirstFit from every start — against
// the rescan oracle, plus a structural invariant check that recomputes the
// segment tree from the leaves.

func oracleFeasible(c *Cluster, cores, gpus int, mem float64) []*Node {
	var out []*Node
	for _, n := range c.Nodes() {
		if n.Down() {
			continue
		}
		if n.FreeCores() >= cores && n.FreeGPUs() >= gpus && n.FreeMem() >= mem {
			out = append(out, n)
		}
	}
	return out
}

func oracleIdle(c *Cluster) []*Node {
	var out []*Node
	for _, n := range c.Nodes() {
		if !n.Down() && n.FreeCores() == n.Type.Cores {
			out = append(out, n)
		}
	}
	return out
}

func sameNodes(a, b []*Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkIndexInvariants refreshes the index, as every query does first, then
// rebuilds every internal segment from the leaves and compares it against
// the incrementally maintained tree.
func checkIndexInvariants(t *testing.T, c *Cluster) {
	t.Helper()
	ix := c.idx
	ix.refresh()
	if len(ix.stale) != 0 {
		t.Fatalf("%d leaves still stale after a refresh", len(ix.stale))
	}
	for _, n := range ix.nodes {
		if n.stale {
			t.Fatalf("node %d still marked stale after a refresh", n.ID)
		}
	}
	// Leaves must mirror the node free counters (down nodes contribute zero).
	for i, n := range ix.nodes {
		p := ix.base + i
		wantCores, wantGPUs, wantMem, wantIdle := 0, 0, 0.0, uint8(0)
		if !n.down {
			wantCores, wantGPUs, wantMem = n.freeCores, n.freeGPUs, n.freeMem
			if n.freeCores == n.Type.Cores {
				wantIdle = 1
			}
		}
		if ix.maxCores[p] != wantCores || ix.maxGPUs[p] != wantGPUs ||
			ix.maxMem[p] != wantMem || ix.anyIdle[p] != wantIdle {
			t.Fatalf("leaf %d stale: (%d,%d,%v,%d), node has (%d,%d,%v,%d)",
				i, ix.maxCores[p], ix.maxGPUs[p], ix.maxMem[p], ix.anyIdle[p],
				wantCores, wantGPUs, wantMem, wantIdle)
		}
	}
	for i := ix.base - 1; i >= 1; i-- {
		l, r := 2*i, 2*i+1
		maxI := func(a, b int) int {
			if a > b {
				return a
			}
			return b
		}
		maxF := func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		}
		if ix.maxCores[i] != maxI(ix.maxCores[l], ix.maxCores[r]) ||
			ix.maxGPUs[i] != maxI(ix.maxGPUs[l], ix.maxGPUs[r]) ||
			ix.maxMem[i] != maxF(ix.maxMem[l], ix.maxMem[r]) ||
			ix.anyIdle[i] != ix.anyIdle[l]|ix.anyIdle[r] {
			t.Fatalf("segment %d inconsistent with children", i)
		}
	}
}

// oracleFirstFit is the rescan form of FirstFit: the first feasible node
// with ID ≥ from.
func oracleFirstFit(c *Cluster, from, cores, gpus int, mem float64) *Node {
	for _, n := range oracleFeasible(c, cores, gpus, mem) {
		if n.ID >= from {
			return n
		}
	}
	return nil
}

// compareFirstFit checks FirstFit against the oracle for every start from
// before the first node to past the end.
func compareFirstFit(t *testing.T, c *Cluster, cores, gpus int, mem float64) {
	t.Helper()
	for from := -1; from <= c.NodeCount()+2; from++ {
		if got, want := c.FirstFit(from, cores, gpus, mem), oracleFirstFit(c, from, cores, gpus, mem); got != want {
			t.Fatalf("FirstFit(%d, %d,%d,%v) = %v, oracle %v", from, cores, gpus, mem, got, want)
		}
	}
}

// compareAllQueries checks every query form against the oracle for a set of
// request shapes spanning trivial to infeasible.
func compareAllQueries(t *testing.T, c *Cluster) {
	t.Helper()
	shapes := []struct {
		cores, gpus int
		mem         float64
	}{
		{0, 0, 0}, // zero-sized: fits every up node, never a down one
		{1, 0, 0},
		{2, 1, 8e9},
		{8, 0, 32e9},
		{16, 2, 64e9},
		{1000, 0, 0}, // infeasible everywhere
	}
	for _, q := range shapes {
		want := oracleFeasible(c, q.cores, q.gpus, q.mem)
		got := c.AppendCandidates(nil, q.cores, q.gpus, q.mem)
		if !sameNodes(want, got) {
			t.Fatalf("AppendCandidates(%d,%d,%v) = %d nodes, oracle %d",
				q.cores, q.gpus, q.mem, len(got), len(want))
		}
		compareFirstFit(t, c, q.cores, q.gpus, q.mem)
	}
	wantIdle := oracleIdle(c)
	if got := c.AppendIdleNodes(nil); !sameNodes(wantIdle, got) {
		t.Fatalf("AppendIdleNodes = %d nodes, oracle %d", len(got), len(wantIdle))
	}
}

// coreLevel is a test's own record of allocated cores: one step sample at
// every grant and at every release of a live allocation, revoked or not.
// The cluster's running integral must integrate exactly this trajectory.
type coreLevel struct {
	cores int
	steps metrics.Series
}

func (l *coreLevel) change(now sim.Time, delta int) {
	l.cores += delta
	l.steps.Add(now, float64(l.cores))
}

// checkUtilization requires Utilization at the current instant to equal the
// recorded step series' integral over [0, now], bit for bit.
func checkUtilization(t *testing.T, c *Cluster, l *coreLevel) {
	t.Helper()
	now := c.Engine().Now()
	want := 0.0
	if c.totalCores > 0 && now > 0 {
		want = l.steps.Integral(0, now) / (float64(c.totalCores) * float64(now))
	}
	if got := c.Utilization(now); got != want {
		t.Fatalf("Utilization(%v) = %v, recorded series gives %v (level %d)", now, got, want, l.cores)
	}
}

func TestIndexMatchesRescanUnderChaos(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		eng := sim.NewEngine()
		c := Heterogeneous(eng, 7) // 21 nodes, 3 families, not a power of two
		r := randx.New(seed)
		clock := randx.New(seed + 1000) // time steps, apart from the op tape
		var live []*Alloc
		var level coreLevel
		for op := 0; op < 600; op++ {
			// Advance virtual time by 0 (same-instant changes) or a
			// fractional step, so the integral sums non-trivial terms.
			eng.RunUntil(eng.Now() + sim.Time(clock.Intn(3))*sim.Time(clock.Float64()))
			switch r.Intn(5) {
			case 0, 1: // allocate (twice the weight: keeps the cluster busy)
				n := c.Nodes()[r.Intn(c.NodeCount())]
				a, err := c.Allocate(n, 1+r.Intn(8), r.Intn(3), float64(r.Intn(16))*4e9)
				if err == nil {
					live = append(live, a)
					level.change(eng.Now(), a.Cores)
				}
			case 2: // release, of a revoked allocation too
				if len(live) > 0 {
					i := r.Intn(len(live))
					c.Release(live[i])
					level.change(eng.Now(), -live[i].Cores)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			case 3: // node failure
				c.FailNode(c.Nodes()[r.Intn(c.NodeCount())])
			case 4: // repair
				c.RepairNode(c.Nodes()[r.Intn(c.NodeCount())])
			}
			compareAllQueries(t, c)
			// Every operation: an update that stops one level too soon
			// leaves an ancestor stale that no single query may expose.
			checkIndexInvariants(t, c)
			checkUtilization(t, c, &level)
		}
	}
}

// TestIndexStormProfile is the correlated-failure profile: every node fails,
// then everything is repaired at once, with straggling releases of revoked
// allocations in between — the sequence most likely to desynchronize an
// incremental index from the truth.
func TestIndexStormProfile(t *testing.T) {
	eng := sim.NewEngine()
	c := Heterogeneous(eng, 6) // 18 nodes
	r := randx.New(99)
	var live []*Alloc
	for i := 0; i < 40; i++ {
		n := c.Nodes()[r.Intn(c.NodeCount())]
		if a, err := c.Allocate(n, 1+r.Intn(4), 0, 1e9); err == nil {
			live = append(live, a)
		}
	}
	for _, n := range c.Nodes() {
		c.FailNode(n)
		compareAllQueries(t, c)
	}
	if got := c.AppendCandidates(nil, 1, 0, 0); len(got) != 0 {
		t.Fatalf("storm: %d candidates on a fully failed cluster", len(got))
	}
	if got := c.FirstFit(0, 0, 0, 0); got != nil {
		t.Fatalf("storm: FirstFit found %s on a fully failed cluster", got.Name())
	}
	if got := c.AppendIdleNodes(nil); len(got) != 0 {
		t.Fatalf("storm: %d idle nodes on a fully failed cluster", len(got))
	}
	checkIndexInvariants(t, c)
	// Straggling releases of revoked allocations must not resurrect capacity.
	for _, a := range live[:len(live)/2] {
		c.Release(a)
		compareAllQueries(t, c)
	}
	for _, n := range c.Nodes() {
		c.RepairNode(n)
		compareAllQueries(t, c)
	}
	// Remaining stragglers release after repair; the epoch check must keep
	// them from crediting the reset counters.
	for _, a := range live[len(live)/2:] {
		c.Release(a)
		compareAllQueries(t, c)
	}
	checkIndexInvariants(t, c)
	if got := c.AppendIdleNodes(nil); len(got) != c.NodeCount() {
		t.Fatalf("after full repair %d/%d nodes idle", len(got), c.NodeCount())
	}
}

// FirstFit at the edges of its domain: from at 0, mid-array, at len(nodes)
// and past the end, on node counts around powers of two (the padding leaves
// must never surface) and on an empty cluster.
func TestFirstFitEdgeCases(t *testing.T) {
	for _, count := range []int{1, 2, 3, 5, 7, 8, 9, 16, 17, 31, 33} {
		eng := sim.NewEngine()
		c := New(eng, "ff", Spec{Type: NodeType{Name: "n", Cores: 4, MemBytes: 16e9}, Count: count})
		mid := count / 2
		cases := []struct{ from, want int }{
			{0, 0}, {mid, mid}, {count - 1, count - 1}, {count, -1}, {count + 5, -1},
		}
		for _, tc := range cases {
			got := c.FirstFit(tc.from, 1, 0, 0)
			if (tc.want < 0) != (got == nil) || (got != nil && got.ID != tc.want) {
				t.Fatalf("%d nodes: FirstFit(%d) = %v, want node %d", count, tc.from, got, tc.want)
			}
		}
		// Fill the first half: the descent must skip it from any start.
		for _, n := range c.Nodes()[:mid] {
			if _, err := c.Allocate(n, 4, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.FirstFit(0, 1, 0, 0); got != c.Nodes()[mid] {
			t.Fatalf("%d nodes, first %d full: FirstFit(0) = %v, want node %d", count, mid, got, mid)
		}
		// Zero-sized requests fit every leaf, padding included; only real
		// nodes may be returned.
		compareFirstFit(t, c, 0, 0, 0)
		compareFirstFit(t, c, 1, 0, 0)
		compareFirstFit(t, c, 5, 0, 0) // larger than any node
	}

	empty := New(sim.NewEngine(), "empty")
	for _, from := range []int{-1, 0, 1} {
		if got := empty.FirstFit(from, 0, 0, 0); got != nil {
			t.Fatalf("empty cluster: FirstFit(%d) = %v", from, got)
		}
	}
	if got := empty.AppendCandidates(nil, 0, 0, 0); len(got) != 0 {
		t.Fatalf("empty cluster: %d candidates", len(got))
	}
	if got := empty.AppendIdleNodes(nil); len(got) != 0 {
		t.Fatalf("empty cluster: %d idle nodes", len(got))
	}
}
