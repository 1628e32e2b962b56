package service

import (
	"hhcw/internal/cluster"
	"hhcw/internal/cwsi"
	"hhcw/internal/rm"
)

// FairShare is a deficit-weighted fair-share strategy: a pending task's
// priority is the negated normalized recent usage of its tenant,
//
//	Priority = -(fairUsage / weight)
//
// where fairUsage is core-seconds consumed, exponentially decayed with the
// fairShareDecaySec time constant — the classic fair-share decay
// rule. The tenant furthest below its recent share always drains first.
// Usage only changes when a task attempt terminates — the same moments the
// CWS bumps its priority-cache generation — so the memoized priorities the
// scheduler reads are never stale: the PriorityCache machinery gives the
// deficit scan O(1) amortized cost per pending task.
type FairShare struct {
	sv *serviceRun
}

// Name implements cwsi.Strategy.
func (f *FairShare) Name() string { return "service-fairshare" }

// Priority implements cwsi.Strategy: higher for tenants with less weighted
// usage. Submissions the CWS did not bind (none in service runs) rank
// neutral.
func (f *FairShare) Priority(s *rm.Submission, ctx *cwsi.Context) float64 {
	i := ctx.Tenant(s)
	if i < 0 {
		return 0
	}
	ts := f.sv.tenants[i]
	return -(ts.fairUsage / ts.weight)
}

// PickNode implements cwsi.Strategy: first fit (matching the FIFO
// baseline's placement so measured differences are pure ordering).
func (f *FairShare) PickNode(_ *rm.Submission, candidates []*cluster.Node, _ *cwsi.Context) *cluster.Node {
	if len(candidates) == 0 {
		return nil
	}
	return candidates[0]
}

// FirstFitOnly implements rm.FirstFitter: PickNode takes the first candidate.
func (f *FairShare) FirstFitOnly() bool { return true }
