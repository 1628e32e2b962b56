package rm

import (
	"fmt"
	"sort"

	"hhcw/internal/cluster"
	"hhcw/internal/sim"
)

// BatchJob is a whole-node batch request, as submitted to SLURM/LSF/Flux.
// The paper's EnTK runs acquire resources this way (one large batch job for
// the whole ensemble, §4), and Frontier's scheduling policy ties walltime
// limits to node counts (§4.2).
type BatchJob struct {
	ID       string
	Account  string
	Nodes    int
	Walltime sim.Time

	// OnStart receives the allocation when the job begins.
	OnStart func(*BatchAlloc)
	// OnExpire is invoked if the walltime limit force-ends the job.
	OnExpire func()
	// OnNodeFail is invoked when a node inside the live allocation fails:
	// the manager has already reaped the node's resources, and the owner
	// must abandon (or resubmit) whatever it was running there. Without
	// this path a "down" node kept executing pilot work to completion.
	OnNodeFail func(*BatchAlloc, *cluster.Node)

	submittedAt sim.Time
}

// BatchAlloc is a granted set of whole nodes. Nodes keeps its original
// membership even after failures (owners use it to test placement).
type BatchAlloc struct {
	Job       *BatchJob
	Nodes     []*cluster.Node
	StartedAt sim.Time

	mgr      *BatchManager
	allocs   []*cluster.Alloc
	expireEv sim.Event
	released bool
}

// Release ends the job early and returns its nodes. Safe to call twice.
func (a *BatchAlloc) Release() {
	if a.released {
		return
	}
	a.released = true
	a.expireEv.Cancel()
	now := a.mgr.eng.Now()
	for _, al := range a.allocs {
		a.mgr.cl.Release(al)
	}
	a.mgr.dropLive(a)
	a.mgr.usage[a.Job.Account] += float64(len(a.Nodes)) * float64(now-a.StartedAt)
	a.mgr.kick()
}

// WalltimePolicy caps job walltime as a function of requested nodes,
// mirroring leadership-facility queue policies ("each ensemble respects
// Frontier's job scheduling policy in terms of walltime limits per amount of
// requested compute nodes", §4.2).
type WalltimePolicy func(nodes int) sim.Time

// FrontierPolicy approximates OLCF's Frontier batch bins: bigger jobs may
// run longer (bin 5: ≤91 nodes / 2 h, bin 4: ≤183 / 6 h, bin 3: ≤5644 /
// 12 h, bins 1–2: 24 h).
func FrontierPolicy(nodes int) sim.Time {
	switch {
	case nodes >= 5645:
		return 24 * 3600
	case nodes >= 184:
		return 12 * 3600
	case nodes >= 92:
		return 6 * 3600
	default:
		return 2 * 3600
	}
}

// BatchManager is a SLURM-like whole-node scheduler with fair-share ordering
// and first-fit backfill.
type BatchManager struct {
	eng    *sim.Engine
	cl     *cluster.Cluster
	policy WalltimePolicy

	queue []*BatchJob
	usage map[string]float64 // account → node-seconds consumed
	live  []*BatchAlloc      // submission-ordered, for deterministic reaping

	started         int
	schedulePending bool
	// Steady-state scratch, reused across schedule passes.
	kickFn      func()
	freeScratch []*cluster.Node
	sorter      *batchQueueSorter
}

// batchQueueSorter orders the queue by fair share: ascending historical
// account usage, FIFO within an account. Held as a prebuilt *sorter so
// sort.Stable boxes no fresh interface value per pass.
type batchQueueSorter struct {
	jobs  []*BatchJob
	usage map[string]float64
}

func (q *batchQueueSorter) Len() int      { return len(q.jobs) }
func (q *batchQueueSorter) Swap(i, j int) { q.jobs[i], q.jobs[j] = q.jobs[j], q.jobs[i] }
func (q *batchQueueSorter) Less(i, j int) bool {
	ui, uj := q.usage[q.jobs[i].Account], q.usage[q.jobs[j].Account]
	if ui != uj {
		return ui < uj
	}
	return q.jobs[i].submittedAt < q.jobs[j].submittedAt
}

// NewBatchManager builds a batch manager over cl. policy may be nil (no
// walltime caps beyond what jobs request). Like a real RM, it reaps failed
// nodes out of live allocations and notifies the owning job, and re-runs the
// backfill pass when repaired capacity comes back.
func NewBatchManager(cl *cluster.Cluster, policy WalltimePolicy) *BatchManager {
	m := &BatchManager{
		eng:    cl.Engine(),
		cl:     cl,
		policy: policy,
		usage:  make(map[string]float64),
	}
	m.kickFn = func() {
		m.schedulePending = false
		m.schedule()
	}
	m.sorter = &batchQueueSorter{usage: m.usage}
	cl.OnNodeDown(m.handleNodeDown)
	cl.OnNodeUp(func(*cluster.Node) { m.kick() })
	return m
}

// handleNodeDown reaps the failed node from every live allocation holding it:
// the node-level reservation is released (revoked, so it cannot corrupt the
// repaired node's capacity) and the owning job is notified so it can fail the
// work it had placed there.
func (m *BatchManager) handleNodeDown(n *cluster.Node) {
	for _, a := range append([]*BatchAlloc(nil), m.live...) {
		if a.released {
			continue
		}
		for i, held := range a.Nodes {
			if held != n {
				continue
			}
			m.cl.Release(a.allocs[i])
			if a.Job.OnNodeFail != nil {
				a.Job.OnNodeFail(a, n)
			}
			break
		}
	}
}

func (m *BatchManager) dropLive(a *BatchAlloc) {
	for i, la := range m.live {
		if la == a {
			m.live = append(m.live[:i], m.live[i+1:]...)
			return
		}
	}
}

// Submit queues a batch job. Jobs requesting more nodes than the cluster has
// are rejected immediately with an error.
func (m *BatchManager) Submit(j *BatchJob) error {
	if j.Nodes <= 0 {
		return fmt.Errorf("rm: batch job %s requests %d nodes", j.ID, j.Nodes)
	}
	if j.Nodes > m.cl.NodeCount() {
		return fmt.Errorf("rm: batch job %s requests %d nodes, cluster has %d", j.ID, j.Nodes, m.cl.NodeCount())
	}
	if m.policy != nil {
		if cap := m.policy(j.Nodes); j.Walltime > cap {
			return fmt.Errorf("rm: batch job %s walltime %v exceeds policy cap %v for %d nodes",
				j.ID, j.Walltime, cap, j.Nodes)
		}
	}
	j.submittedAt = m.eng.Now()
	m.queue = append(m.queue, j)
	m.kick()
	return nil
}

// Started returns the number of jobs that began execution.
func (m *BatchManager) Started() int { return m.started }

func (m *BatchManager) kick() {
	if m.schedulePending {
		return
	}
	m.schedulePending = true
	m.eng.After(0, m.kickFn)
}

// schedule orders the queue by fair share (ascending historical usage, FIFO
// within an account) then first-fit backfills: any job whose node count fits
// the currently idle nodes starts. Idle nodes come from the cluster's
// capacity index — same predicate and node-ID order as the historical full
// scan — and the pass compacts the queue in place on reusable scratch.
func (m *BatchManager) schedule() {
	if len(m.queue) == 0 {
		return
	}
	m.sorter.jobs = m.queue
	sort.Stable(m.sorter)
	m.sorter.jobs = nil
	free := m.cl.AppendIdleNodes(m.freeScratch[:0])
	m.freeScratch = free[:0]
	rest := m.queue[:0]
	for _, j := range m.queue {
		if j.Nodes > len(free) {
			rest = append(rest, j)
			continue
		}
		granted := free[:j.Nodes]
		free = free[j.Nodes:]
		if !m.start(j, granted) {
			rest = append(rest, j)
		}
	}
	m.queue = rest
}

// start grants the job its whole nodes; it reports false (leaving the job
// queued) if any node raced to a down state mid-grant.
func (m *BatchManager) start(j *BatchJob, nodes []*cluster.Node) bool {
	now := m.eng.Now()
	allocs, err := m.cl.AllocateAll(nodes)
	if err != nil {
		return false
	}
	alloc := &BatchAlloc{
		Job: j, Nodes: append([]*cluster.Node(nil), nodes...), StartedAt: now,
		mgr: m, allocs: allocs,
	}
	m.live = append(m.live, alloc)
	m.started++
	if j.Walltime > 0 {
		alloc.expireEv = m.eng.After(j.Walltime, func() {
			alloc.Release()
			if j.OnExpire != nil {
				j.OnExpire()
			}
		})
	}
	if j.OnStart != nil {
		j.OnStart(alloc)
	}
	return true
}
