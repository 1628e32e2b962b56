// Package pilot implements a RADICAL-Pilot-style pilot-job runtime (§4.1):
// a placeholder batch job acquires a block of nodes; an agent bootstraps on
// the allocation and then schedules and launches many small tasks inside it
// without further round-trips to the batch system.
//
// The agent models the two throughput limits the paper measures on Frontier
// (§4.3, Fig 5): a scheduling rate (tasks assigned to resources, ~269/s) and
// a launching rate (tasks started on nodes, ~51/s), plus a fixed bootstrap
// overhead (Fig 4's OVH, ~85 s). Node failures inside the allocation kill
// the tasks running there; the pool shrinks accordingly. A Pilot is an
// rm.Executor: a submission asks for ⌈Cores / cores per node⌉ whole nodes.
package pilot

import (
	"errors"
	"fmt"
	"slices"

	"hhcw/internal/cluster"
	"hhcw/internal/metrics"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// Config shapes a pilot.
type Config struct {
	Nodes    int
	Walltime sim.Time
	Account  string

	// BootstrapSec is the agent startup overhead after the allocation is
	// granted (Fig 4 OVH).
	BootstrapSec float64
	// SchedRate is the agent scheduler throughput in tasks/second
	// (0 = unlimited).
	SchedRate float64
	// LaunchRate is the task launcher throughput in tasks/second
	// (0 = unlimited).
	LaunchRate float64
}

// ErrRejected marks the failure of a submission the pilot refused outright:
// one asking for no nodes or more nodes than the pilot holds, or one
// submitted after the pilot finished.
var ErrRejected = errors.New("pilot: task rejected")

// State is the pilot lifecycle state.
type State int

// Pilot lifecycle states.
const (
	Pending State = iota // submitted to the batch system
	Bootstrapping
	Active
	Done
)

// String returns the lifecycle state name.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Bootstrapping:
		return "bootstrapping"
	case Active:
		return "active"
	default:
		return "done"
	}
}

// Pilot is an acquired allocation plus the agent running inside it.
type Pilot struct {
	cfg   Config
	eng   *sim.Engine
	state State

	alloc     *rm.BatchAlloc
	nodeCores int // cores per node: the unit a submission's Cores is counted in
	freeNodes []*cluster.Node
	dead      map[int]bool // node ID → failed

	queue     []*pending // submitted, not yet scheduled
	scheduled []*pending // assigned resources conceptually, awaiting launch
	// running is the dense set of launched tasks: each knows its slot.
	running []*pending
	// victims collects the tasks a node failure kills.
	victims []*pending

	nextSchedFree  sim.Time // earliest time the scheduler can process the next task
	nextLaunchFree sim.Time
	schedPumping   bool
	launchPumping  bool

	startedAt    sim.Time // allocation granted
	activeAt     sim.Time // agent ready
	firstTaskAt  sim.Time
	sawFirstTask bool
	lastDoneAt   sim.Time

	schedCount  *metrics.Counter
	launchCount *metrics.Counter
	runningN    *metrics.Gauge
	busyNodes   *metrics.Gauge

	onActive []func()
}

type pending struct {
	sub         *rm.Submission
	slot        int // position in Pilot.running while launched
	nodeCount   int
	submittedAt sim.Time
	nodes       []*cluster.Node
	endEv       sim.Event
	launchedAt  sim.Time
}

// Submit requests a pilot through the batch manager; the returned Pilot
// becomes Active after the allocation is granted and the agent bootstraps.
func Submit(bm *rm.BatchManager, cl *cluster.Cluster, cfg Config) (*Pilot, error) {
	p := &Pilot{
		cfg:         cfg,
		eng:         cl.Engine(),
		state:       Pending,
		dead:        map[int]bool{},
		schedCount:  metrics.NewCounter("pilot.scheduled"),
		launchCount: metrics.NewCounter("pilot.launched"),
		runningN:    metrics.NewGauge("pilot.running"),
		busyNodes:   metrics.NewGauge("pilot.busy_nodes"),
		nodeCores:   1,
	}
	if nodes := cl.Nodes(); len(nodes) > 0 && nodes[0].Type.Cores > 0 {
		p.nodeCores = nodes[0].Type.Cores
	}
	job := &rm.BatchJob{
		ID:       fmt.Sprintf("pilot-%d-nodes", cfg.Nodes),
		Account:  cfg.Account,
		Nodes:    cfg.Nodes,
		Walltime: cfg.Walltime,
		OnStart:  p.onGranted,
		OnExpire: p.onExpire,
	}
	if err := bm.Submit(job); err != nil {
		return nil, err
	}
	cl.OnNodeDown(p.onNodeDown)
	return p, nil
}

// State returns the pilot lifecycle state.
func (p *Pilot) State() State { return p.state }

// OnActive registers a callback for when the agent finishes bootstrapping.
func (p *Pilot) OnActive(fn func()) {
	if p.state == Active {
		fn()
		return
	}
	p.onActive = append(p.onActive, fn)
}

// Overhead returns the Fig-4 OVH: time from allocation grant to agent ready.
func (p *Pilot) Overhead() sim.Time { return p.activeAt - p.startedAt }

// TTX returns total execution span: first task launch to last completion.
func (p *Pilot) TTX() sim.Time {
	if p.lastDoneAt < p.firstTaskAt {
		return 0
	}
	return p.lastDoneAt - p.firstTaskAt
}

// StartedAt returns when the allocation was granted.
func (p *Pilot) StartedAt() sim.Time { return p.startedAt }

// RunningSeries exposes the running-task trajectory (Fig 5 orange line).
func (p *Pilot) RunningSeries() *metrics.Gauge { return p.runningN }

// ScheduledSeries exposes the cumulative scheduling trajectory (Fig 5 blue
// line's integral).
func (p *Pilot) ScheduledSeries() *metrics.Counter { return p.schedCount }

// LaunchedSeries exposes the cumulative launch trajectory.
func (p *Pilot) LaunchedSeries() *metrics.Counter { return p.launchCount }

// BusyNodesSeries exposes the busy-node trajectory for utilization plots.
func (p *Pilot) BusyNodesSeries() *metrics.Gauge { return p.busyNodes }

// CoresPerNode returns the cores a submission's Cores counts per node.
func (p *Pilot) CoresPerNode() int { return p.nodeCores }

// Engine returns the engine the pilot runs on (rm.Executor).
func (p *Pilot) Engine() *sim.Engine { return p.eng }

// Release ends the pilot and returns the allocation.
func (p *Pilot) Release() {
	if p.state == Done {
		return
	}
	p.state = Done
	if p.alloc != nil {
		p.alloc.Release()
	}
}

func (p *Pilot) onGranted(a *rm.BatchAlloc) {
	p.alloc = a
	p.startedAt = p.eng.Now()
	p.state = Bootstrapping
	p.freeNodes = append([]*cluster.Node(nil), a.Nodes...)
	p.eng.After(sim.Time(p.cfg.BootstrapSec), func() {
		if p.state != Bootstrapping {
			return // expired or released while bootstrapping
		}
		p.state = Active
		p.activeAt = p.eng.Now()
		for _, fn := range p.onActive {
			fn()
		}
		p.onActive = nil
		p.pumpScheduler()
	})
}

func (p *Pilot) onExpire() {
	p.state = Done
	// Kill everything still running; pending tasks fail too.
	victims := slices.Clone(p.running)
	sortByID(victims)
	for _, q := range victims {
		q.endEv.Cancel()
		p.finish(q, fmt.Errorf("pilot: walltime expired"))
	}
	for _, q := range append(p.queue, p.scheduled...) {
		p.fail(q, fmt.Errorf("pilot: walltime expired before task ran"))
	}
	p.queue, p.scheduled = nil, nil
}

// Submit hands a task to the agent (rm.Executor). Tasks submitted before the
// agent is active queue up and flow once bootstrapping completes. A task the
// pilot refuses fails at once, inside Submit, with an error wrapping
// ErrRejected.
func (p *Pilot) Submit(s *rm.Submission) {
	n := (s.Cores + p.nodeCores - 1) / p.nodeCores
	var err error
	switch {
	case p.state == Done:
		err = fmt.Errorf("%w: %s submitted to a finished pilot", ErrRejected, s.ID())
	case n <= 0:
		err = fmt.Errorf("%w: %s requests %d nodes", ErrRejected, s.ID(), n)
	case n > p.cfg.Nodes:
		err = fmt.Errorf("%w: %s requests %d nodes, pilot has %d", ErrRejected, s.ID(), n, p.cfg.Nodes)
	}
	now := p.eng.Now()
	if err != nil {
		s.Finish(rm.Result{Submission: s, SubmittedAt: now, StartedAt: now, FinishedAt: now, Failed: true, Err: err})
		return
	}
	p.queue = append(p.queue, &pending{sub: s, nodeCount: n, submittedAt: now})
	if p.state == Active {
		p.pumpScheduler()
	}
}

// pumpScheduler moves tasks from queue to scheduled at SchedRate.
func (p *Pilot) pumpScheduler() {
	if p.schedPumping || p.state != Active || len(p.queue) == 0 {
		return
	}
	p.schedPumping = true
	now := p.eng.Now()
	at := p.nextSchedFree
	if at < now {
		at = now
	}
	p.eng.At(at, func() {
		p.schedPumping = false
		if p.state != Active || len(p.queue) == 0 {
			return
		}
		q := p.queue[0]
		p.queue = p.queue[1:]
		p.scheduled = append(p.scheduled, q)
		p.schedCount.Inc(p.eng.Now(), 1)
		if p.cfg.SchedRate > 0 {
			p.nextSchedFree = p.eng.Now() + sim.Time(1/p.cfg.SchedRate)
		}
		p.pumpScheduler()
		p.pumpLauncher()
	})
}

// pumpLauncher moves scheduled tasks onto free nodes at LaunchRate.
func (p *Pilot) pumpLauncher() {
	if p.launchPumping || p.state != Active || len(p.scheduled) == 0 {
		return
	}
	// Find the first scheduled task that fits the free pool (FIFO with
	// skip-over, like the agent's continuous scheduler).
	fitIdx := -1
	for i, q := range p.scheduled {
		if q.nodeCount <= len(p.freeNodes) {
			fitIdx = i
			break
		}
	}
	if fitIdx < 0 {
		return
	}
	p.launchPumping = true
	now := p.eng.Now()
	at := p.nextLaunchFree
	if at < now {
		at = now
	}
	p.eng.At(at, func() {
		p.launchPumping = false
		if p.state != Active {
			return
		}
		// Re-find a fitting task; the pool may have changed.
		idx := -1
		for i, q := range p.scheduled {
			if q.nodeCount <= len(p.freeNodes) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		q := p.scheduled[idx]
		p.scheduled = append(p.scheduled[:idx], p.scheduled[idx+1:]...)
		q.nodes = p.freeNodes[:q.nodeCount]
		p.freeNodes = p.freeNodes[q.nodeCount:]
		p.launch(q)
		if p.cfg.LaunchRate > 0 {
			p.nextLaunchFree = p.eng.Now() + sim.Time(1/p.cfg.LaunchRate)
		}
		p.pumpLauncher()
	})
}

func (p *Pilot) launch(q *pending) {
	now := p.eng.Now()
	q.launchedAt = now
	if !p.sawFirstTask {
		p.sawFirstTask = true
		p.firstTaskAt = now
	}
	q.slot = len(p.running)
	p.running = append(p.running, q)
	p.runningN.AddDelta(now, 1)
	p.busyNodes.AddDelta(now, float64(q.nodeCount))
	p.launchCount.Inc(now, 1)
	q.endEv = p.eng.After(sim.Time(q.sub.RuntimeOn(q.nodes[0])), func() {
		p.finish(q, q.sub.ValidateOn(q.nodes[0]))
	})
}

// finish ends a launched task, failed when err is non-nil.
func (p *Pilot) finish(q *pending, err error) {
	now := p.eng.Now()
	last := len(p.running) - 1
	moved := p.running[last]
	p.running[q.slot], moved.slot = moved, q.slot
	p.running[last] = nil
	p.running = p.running[:last]
	p.runningN.AddDelta(now, -1)
	p.busyNodes.AddDelta(now, -float64(q.nodeCount))
	// Return healthy nodes to the pool.
	for _, n := range q.nodes {
		if !p.dead[n.ID] {
			p.freeNodes = append(p.freeNodes, n)
		}
	}
	p.lastDoneAt = now
	q.sub.Finish(rm.Result{
		Submission:  q.sub,
		Node:        q.nodes[0],
		SubmittedAt: q.submittedAt,
		StartedAt:   q.launchedAt,
		FinishedAt:  now,
		Failed:      err != nil,
		Err:         err,
	})
	p.pumpLauncher()
	p.pumpScheduler()
}

// fail ends a task that never launched.
func (p *Pilot) fail(q *pending, err error) {
	now := p.eng.Now()
	q.sub.Finish(rm.Result{Submission: q.sub, SubmittedAt: q.submittedAt, StartedAt: now, FinishedAt: now, Failed: true, Err: err})
}

func (p *Pilot) onNodeDown(n *cluster.Node) {
	if p.alloc == nil {
		return
	}
	mine := false
	for _, an := range p.alloc.Nodes {
		if an == n {
			mine = true
			break
		}
	}
	if !mine {
		return
	}
	p.dead[n.ID] = true
	// Remove from the free pool if idle.
	for i, fn := range p.freeNodes {
		if fn == n {
			p.freeNodes = append(p.freeNodes[:i], p.freeNodes[i+1:]...)
			break
		}
	}
	// Kill tasks using this node (deterministic order). The scratch is
	// detached while their callbacks run.
	victims := p.victims[:0]
	for _, q := range p.running {
		for _, qn := range q.nodes {
			if qn == n {
				victims = append(victims, q)
				break
			}
		}
	}
	if len(victims) > 0 {
		p.victims = nil
		sortByID(victims)
		cause := &rm.NodeFailedError{Layer: "pilot", Node: n.Name()}
		for _, q := range victims {
			q.endEv.Cancel()
			p.finish(q, cause)
		}
		clear(victims)
	}
	p.victims = victims[:0]
}

// sortByID puts tasks in submission-ID order, the order the pilot fails
// them in, whatever slots swap-removal left them in.
func sortByID(qs []*pending) {
	slices.SortFunc(qs, func(a, b *pending) int { return rm.CompareID(a.sub, b.sub) })
}
