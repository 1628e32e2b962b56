package cwsi

import (
	"sort"

	"hhcw/internal/cluster"
	"hhcw/internal/rm"
)

// The strategy families §3 evaluates: the workflow-oblivious FIFO baseline,
// the "simple workflow-aware strategies" (rank and file size) that produced
// the reported 10.8 % average / up-to-25 % makespan reductions, and the more
// sophisticated prediction-driven policies (HEFT-like, Tarema-like) §3.4
// plans to integrate.

// Baseline is workflow-oblivious FIFO with first-fit placement — what a
// plain resource manager does when the WMS "submits each task individually"
// (§3.2, Argo/Kubernetes).
type Baseline struct{}

// Name implements Strategy.
func (Baseline) Name() string { return "fifo" }

// Priority implements Strategy: all equal → submission order.
func (Baseline) Priority(*rm.Submission, *Context) float64 { return 0 }

// PickNode implements Strategy: first fit.
func (Baseline) PickNode(_ *rm.Submission, c []*cluster.Node, _ *Context) *cluster.Node {
	return firstFit(c)
}

// FirstFitOnly implements rm.FirstFitter.
func (Baseline) FirstFitOnly() bool { return true }

func firstFit(c []*cluster.Node) *cluster.Node {
	if len(c) == 0 {
		return nil
	}
	return c[0]
}

// Spread is workflow-oblivious FIFO with least-allocated placement — the
// Kubernetes default scheduler's scoring, which balances load but is
// oblivious to dataflow (it spreads a chain's stages across nodes).
type Spread struct{}

// Name implements Strategy.
func (Spread) Name() string { return "spread" }

// Priority implements Strategy: submission order.
func (Spread) Priority(*rm.Submission, *Context) float64 { return 0 }

// PickNode implements Strategy: most free cores first.
func (Spread) PickNode(_ *rm.Submission, candidates []*cluster.Node, _ *Context) *cluster.Node {
	var best *cluster.Node
	for _, n := range candidates {
		if best == nil || n.FreeCores() > best.FreeCores() {
			best = n
		}
	}
	return best
}

// Rank prioritizes tasks by upward rank in their workflow DAG: tasks with
// more critical work below them start first, shortening the critical path
// under contention.
type Rank struct{}

// Name implements Strategy.
func (Rank) Name() string { return "rank" }

// Priority implements Strategy.
func (Rank) Priority(s *rm.Submission, ctx *Context) float64 {
	return ctx.Rank(s)
}

// PickNode implements Strategy: first fit.
func (Rank) PickNode(_ *rm.Submission, c []*cluster.Node, _ *Context) *cluster.Node {
	return firstFit(c)
}

// FirstFitOnly implements rm.FirstFitter.
func (Rank) FirstFitOnly() bool { return true }

// FileSize prioritizes by declared input size — §3.5's "file size" strategy.
// Descending (large first) overlaps long data-heavy tasks with short ones.
type FileSize struct {
	// Ascending runs small-input tasks first when true.
	Ascending bool
}

// Name implements Strategy.
func (f FileSize) Name() string {
	if f.Ascending {
		return "filesize-asc"
	}
	return "filesize-desc"
}

// Priority implements Strategy.
func (f FileSize) Priority(s *rm.Submission, _ *Context) float64 {
	if f.Ascending {
		return -s.InputBytes
	}
	return s.InputBytes
}

// PickNode implements Strategy: first fit.
func (FileSize) PickNode(_ *rm.Submission, c []*cluster.Node, _ *Context) *cluster.Node {
	return firstFit(c)
}

// FirstFitOnly implements rm.FirstFitter.
func (FileSize) FirstFitOnly() bool { return true }

// HEFT combines rank priority with earliest-finish-time placement using the
// CWS runtime predictions (nominal durations until the predictor warms up) —
// the classic heterogeneous list scheduler §3.4 cites as needing exactly the
// task characteristics the CWSI provides.
type HEFT struct{}

// Name implements Strategy.
func (HEFT) Name() string { return "heft" }

// Priority implements Strategy.
func (HEFT) Priority(s *rm.Submission, ctx *Context) float64 {
	return ctx.Rank(s)
}

// PickNode implements Strategy: minimize predicted finish time; since every
// candidate can start now, that is the node with the smallest predicted
// runtime (fastest compatible machine), with stable tie-breaking.
func (HEFT) PickNode(s *rm.Submission, candidates []*cluster.Node, ctx *Context) *cluster.Node {
	var best *cluster.Node
	bestDur := 0.0
	for _, n := range candidates {
		d := ctx.PredictRuntime(s, n)
		if best == nil || d < bestDur {
			best, bestDur = n, d
		}
	}
	return best
}

// Tarema implements the paper's Tarema-style policy (§3.4, [19]): group
// nodes into performance classes by speed factor, group task names into
// demand classes by observed mean reference runtime, and steer long-running
// task families onto fast node groups. Before provenance data exists it
// degrades gracefully to first fit.
type Tarema struct {
	// Groups is the number of classes on each side (default 3).
	Groups int
}

// Name implements Strategy.
func (Tarema) Name() string { return "tarema" }

// Priority implements Strategy: rank-based, like the other aware policies.
func (Tarema) Priority(s *rm.Submission, ctx *Context) float64 {
	return ctx.Rank(s)
}

// PickNode implements Strategy.
func (t Tarema) PickNode(s *rm.Submission, candidates []*cluster.Node, ctx *Context) *cluster.Node {
	groups := t.Groups
	if groups <= 0 {
		groups = 3
	}
	mean, ok := ctx.ObservedMeanRuntime(s.Name)
	if !ok {
		return firstFit(candidates)
	}
	// Node class: quantile position of the node's speed factor among the
	// cluster's node types.
	types := ctx.cws.mgr.Cluster().Types()
	speeds := make([]float64, 0, len(types))
	for _, nt := range types {
		speeds = append(speeds, nt.SpeedFactor)
	}
	sort.Float64s(speeds)
	nodeClass := func(n *cluster.Node) int {
		pos := sort.SearchFloat64s(speeds, n.Type.SpeedFactor)
		return pos * groups / len(speeds)
	}
	// Task class: position of this task family's mean runtime among all
	// observed families.
	all := observedMeans(ctx)
	sort.Float64s(all)
	pos := sort.SearchFloat64s(all, mean)
	if pos == len(all) {
		pos = len(all) - 1
	}
	taskClass := pos * groups / len(all)

	// Prefer candidates whose node class matches the task class; fall back
	// to the closest class.
	var best *cluster.Node
	bestDist := 0
	for _, n := range candidates {
		d := taskClass - nodeClass(n)
		if d < 0 {
			d = -d
		}
		if best == nil || d < bestDist {
			best, bestDist = n, d
		}
	}
	return best
}

func observedMeans(ctx *Context) []float64 {
	stats := ctx.cws.prov.StatsByName()
	out := make([]float64, 0, len(stats))
	for _, st := range stats {
		if st.Executions > st.Failures {
			// Normalize to reference machine is already approximate via
			// ObservedMeanRuntime; use plain means for classing.
			out = append(out, st.MeanRuntime)
		}
	}
	if len(out) == 0 {
		out = append(out, 1)
	}
	return out
}
