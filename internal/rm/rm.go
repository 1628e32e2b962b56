// Package rm simulates the resource managers the paper's workflow systems
// talk to (§3: "such as SLURM, Kubernetes, or OpenPBS").
//
// Two managers are provided:
//
//   - TaskManager ("KubeSim"): a Kubernetes-like, task-granular manager that
//     places individual task submissions onto nodes. Its scheduling policy is
//     pluggable via Strategy — this is exactly where the Common Workflow
//     Scheduler (internal/cwsi) attaches workflow awareness.
//   - BatchManager: a SLURM-like, node-granular manager with whole-node
//     jobs, walltime limits and fair-share ordering, used by pilots (§4) and
//     the Atlas HPC runs (§5).
//
// Both run entirely in virtual time on a sim.Engine.
package rm

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/sim"
)

// Submission is one task handed to a TaskManager, carrying the resource
// requests and (via CWSI) workflow identity the scheduler may exploit. Its
// ID is not stored: ID renders it from WorkflowID, TaskID and Attempt when
// something reads it, and IDLess orders submissions by it without
// rendering.
type Submission struct {
	WorkflowID string
	TaskID     dag.TaskID
	// Attempt numbers the task's attempts from 1; ID marks the second and
	// later ones.
	Attempt int
	Name    string // process/tool name

	Cores int
	GPUs  int
	Mem   float64

	// InputBytes is visible to size-aware strategies (§3.5's "file size"
	// strategy).
	InputBytes float64

	// Runtime returns the task's execution time on the given node; the
	// manager calls it once at placement. Ignored when Hooks is set.
	Runtime func(n *cluster.Node) float64

	// Validate, when non-nil, is consulted at completion; a non-nil error
	// turns the execution into a failure (e.g. an OOM kill when the
	// granted memory was below the task's true peak). Ignored when Hooks
	// is set.
	Validate func(n *cluster.Node) error

	// Done is invoked exactly once with the terminal result. Ignored when
	// Hooks is set.
	Done func(Result)

	// Hooks, when non-nil, replaces the Runtime/Validate/Done fields with a
	// single callback object. Submitters on hot paths use it to bundle all
	// per-task state into one allocation instead of three closures.
	Hooks SubmissionHooks

	submittedAt sim.Time
	// placed marks the submission as dispatched within the current schedule
	// pass — a flag on the submission itself so the pass needs no per-round
	// map allocation.
	placed bool
	// prioKey/prioGen memoize a scheduler's priority for this submission
	// (see PriorityCache); gen 0 means "never cached".
	prioKey float64
	prioGen uint64
}

// ID returns the submission ID: WorkflowID + "/" + TaskID, with "#n" added
// for attempt n > 1. It builds the string on every call; orders compare
// with IDLess instead.
func (s *Submission) ID() string {
	var b [128]byte
	return string(s.appendID(b[:0]))
}

// appendID appends the ID to b.
func (s *Submission) appendID(b []byte) []byte {
	return appendID(b, s.WorkflowID, s.TaskID, s.Attempt)
}

// appendID appends the ID of attempt n of task in workflow wf to b.
func appendID(b []byte, wf string, task dag.TaskID, n int) []byte {
	b = append(b, wf...)
	b = append(b, '/')
	b = append(b, task...)
	if n > 1 {
		b = append(b, '#')
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return b
}

// IDLess reports whether a.ID() < b.ID(). It renders both IDs into stack
// buffers, so the orders that sort by ID (victims of a node failure, a
// backfill reservation's release order, a pilot's walltime kills) allocate
// nothing for IDs that fit them.
func IDLess(a, b *Submission) bool { return CompareID(a, b) < 0 }

// CompareID compares a.ID() with b.ID() as strings.Compare does, rendering
// both into stack buffers: the slices.SortFunc form of IDLess.
func CompareID(a, b *Submission) int {
	var ab, bb [128]byte
	return bytes.Compare(a.appendID(ab[:0]), b.appendID(bb[:0]))
}

// PriorityCache returns the priority memoized under generation gen, if any.
// Schedulers that sort the pending queue by a derived key use this to
// compute each submission's priority once and reuse it every round until
// their knowledge changes (bumping the generation invalidates all entries
// at once). Generation 0 is reserved and never matches.
func (s *Submission) PriorityCache(gen uint64) (float64, bool) {
	if gen != 0 && s.prioGen == gen {
		return s.prioKey, true
	}
	return 0, false
}

// SetPriorityCache memoizes the submission's priority under generation gen.
func (s *Submission) SetPriorityCache(v float64, gen uint64) {
	s.prioKey, s.prioGen = v, gen
}

// SubmissionHooks bundles a submission's callbacks into one object, the
// allocation-lean alternative to the three closure fields.
type SubmissionHooks interface {
	// RuntimeOn returns the execution time on the given node (Submission.Runtime).
	RuntimeOn(n *cluster.Node) float64
	// ValidateOn is consulted at completion (Submission.Validate semantics).
	ValidateOn(n *cluster.Node) error
	// Done receives the terminal result exactly once.
	Done(Result)
}

// Executor runs the attempts a StreamRunner submits: a TaskManager, a pilot
// agent, or CloudEnv's instance fleet. Submit queues s; s.RuntimeOn is asked
// when s starts and s.ValidateOn when it ends (with a nil node where there
// are no cluster nodes), and s.Finish gets the result exactly once, inside
// Submit if the executor refuses s. Engine is the executor's clock.
type Executor interface {
	Submit(s *Submission)
	Engine() *sim.Engine
}

// RuntimeOn returns the execution time on node n, through Hooks or Runtime.
func (s *Submission) RuntimeOn(n *cluster.Node) float64 {
	if s.Hooks != nil {
		return s.Hooks.RuntimeOn(n)
	}
	return s.Runtime(n)
}

// ValidateOn reports whether the execution on node n failed, through Hooks
// or Validate.
func (s *Submission) ValidateOn(n *cluster.Node) error {
	if s.Hooks != nil {
		return s.Hooks.ValidateOn(n)
	}
	if s.Validate != nil {
		return s.Validate(n)
	}
	return nil
}

// Finish delivers the terminal result, through Hooks or Done.
func (s *Submission) Finish(r Result) {
	if s.Hooks != nil {
		s.Hooks.Done(r)
		return
	}
	if s.Done != nil {
		s.Done(r)
	}
}

// Result is the terminal record for a submission.
type Result struct {
	// Submission is the submission this result terminates. It is valid for
	// the duration of the Done callback; runners that pool their submission
	// records (StreamRunner) recycle it afterwards, so callbacks
	// must copy any fields they keep rather than retain the pointer.
	Submission  *Submission
	Node        *cluster.Node
	SubmittedAt sim.Time
	StartedAt   sim.Time
	FinishedAt  sim.Time
	Failed      bool
	Err         error
}

// Strategy orders the pending queue and picks nodes — the policy surface the
// CWS replaces (§3.1: "workflow engines with CWSI support do not need their
// own scheduler component ... the scheduling happens there").
type Strategy interface {
	Name() string
	// Prioritize returns the pending submissions in scheduling order. It
	// must return a permutation of pending (same elements). The manager
	// passes a scratch copy of its queue, so implementations may reorder
	// the slice in place and return it without copying; the slice is only
	// valid until the pass ends.
	Prioritize(pending []*Submission) []*Submission
	// PickNode chooses among nodes that can currently fit s. Returning nil
	// skips s this pass.
	PickNode(s *Submission, candidates []*cluster.Node) *cluster.Node
}

// FirstFitter is the optional declaration of a Strategy whose PickNode reads
// nothing of its candidates but the first: given the feasible nodes in
// ascending ID order, it either returns candidates[0] or nil, and its side
// effects depend on candidates only through that node. FirstFitOnly
// reporting true lets the manager find that node by one index descent
// (cluster.FirstFit) and hand PickNode a slice of at most one node instead
// of the whole feasible list. The manager asks once per dispatch pass, so a
// wrapper may forward whatever strategy it currently wraps.
type FirstFitter interface {
	FirstFitOnly() bool
}

// DeclaresFirstFit reports whether s is a FirstFitter answering true.
func DeclaresFirstFit(s any) bool {
	f, ok := s.(FirstFitter)
	return ok && f.FirstFitOnly()
}

// FIFO is the baseline workflow-oblivious strategy: submission order,
// first-fit placement. This is how plain Kubernetes/SLURM treat workflow
// tasks (§3.2: "Kubernetes then schedules them in a FIFO manner").
type FIFO struct{}

// Name implements Strategy.
func (FIFO) Name() string { return "fifo" }

// Prioritize implements Strategy: submission order.
func (FIFO) Prioritize(p []*Submission) []*Submission { return p }

// PickNode implements Strategy: first fit.
func (FIFO) PickNode(s *Submission, candidates []*cluster.Node) *cluster.Node {
	if len(candidates) == 0 {
		return nil
	}
	return candidates[0]
}

// FirstFitOnly implements FirstFitter.
func (FIFO) FirstFitOnly() bool { return true }

// TaskManager is the Kubernetes-like task-granular resource manager.
type TaskManager struct {
	eng      *sim.Engine
	cl       *cluster.Cluster
	strategy Strategy

	pending []*Submission
	// running is the dense running set: each record knows its slot, and
	// finish swap-removes it. Readers that need an order sort what they
	// collect (handleNodeDown, shadowOn).
	running []*running

	completed int
	failed    int
	// started counts placements; waitSum adds their queue waits in start
	// order.
	started int
	waitSum float64

	// oracle, when set, arms EASY-style predicted-duration backfill in the
	// dispatch pass (see SetDurationOracle in backfill.go).
	oracle DurationOracle

	schedulePending bool
	// Steady-state scratch, reused across schedule passes so dispatch
	// allocates nothing once warm.
	kickFn       func()
	orderScratch []*Submission
	candScratch  []*cluster.Node
	freeRunning  []*running
	resScratch   []*running
	// victims collects the running records a node failure kills.
	victims []*running
	// downErrs memoizes each node's failure cause, indexed by node ID: the
	// value is immutable, so every failure of the node shares one.
	downErrs []*NodeFailedError
}

type running struct {
	slot  int // position in TaskManager.running
	sub   *Submission
	alloc *cluster.Alloc
	endEv sim.Event
	start sim.Time
	// end is the scheduled completion time, recorded so backfill can
	// simulate capacity releases without touching the event queue.
	end sim.Time
	// allocBox backs alloc: the reservation record is embedded here so a
	// recycled running record carries its Alloc along instead of
	// heap-allocating one per placement.
	allocBox cluster.Alloc
	// endFn is the completion callback, bound to this record once and
	// reused across recycles (steady-state dispatch allocates no closure
	// per task).
	endFn func()
}

// NewTaskManager builds a manager over cl using the given strategy (FIFO if
// nil). It subscribes to node failures (failing affected submissions) and
// repairs (kicking the scheduler, so work queued while capacity was down
// resumes when it returns).
func NewTaskManager(cl *cluster.Cluster, strategy Strategy) *TaskManager {
	if strategy == nil {
		strategy = FIFO{}
	}
	m := &TaskManager{
		eng:      cl.Engine(),
		cl:       cl,
		strategy: strategy,
		running:  make([]*running, 0, 32),
		pending:  make([]*Submission, 0, 32),
	}
	m.kickFn = func() {
		m.schedulePending = false
		m.schedule()
	}
	cl.OnNodeDown(m.handleNodeDown)
	cl.OnNodeUp(func(*cluster.Node) { m.kick() })
	return m
}

// Reset returns the manager to its just-constructed state over the same
// cluster and engine: the pending queue and running set are cleared in place
// with their capacity retained, the counts and the wait sum are zeroed, and
// any duration oracle is disarmed. Construction identity survives: the
// strategy, scratch buffers, pooled running records, and — critically — the
// OnNodeDown/OnNodeUp subscriptions made by NewTaskManager, which must not be
// re-registered on a warm cluster.
func (m *TaskManager) Reset() {
	clear(m.pending)
	m.pending = m.pending[:0]
	clear(m.running)
	m.running = m.running[:0]
	m.completed, m.failed, m.started, m.waitSum = 0, 0, 0, 0
	m.oracle = nil
	m.schedulePending = false
}

// SetStrategy replaces the scheduling strategy (takes effect next pass).
func (m *TaskManager) SetStrategy(s Strategy) { m.strategy = s }

// Cluster returns the underlying cluster.
func (m *TaskManager) Cluster() *cluster.Cluster { return m.cl }

// Engine returns the engine the manager runs on (Executor).
func (m *TaskManager) Engine() *sim.Engine { return m.eng }

// Completed returns the count of successful completions.
func (m *TaskManager) Completed() int { return m.completed }

// Failed returns the count of failed submissions.
func (m *TaskManager) Failed() int { return m.failed }

// QueueWait returns the queue waits (seconds) of every submission placed on a
// node, summed in start order, and how many there were.
func (m *TaskManager) QueueWait() (sum float64, started int) { return m.waitSum, m.started }

// SetLean does nothing. The manager keeps only counts and a wait sum, O(1) at
// any task count, so there is no leaner mode; the method remains only because
// the benchmark module still calls it.
func (m *TaskManager) SetLean() {}

// Submit queues a submission for scheduling.
func (m *TaskManager) Submit(s *Submission) {
	if s.TaskID == "" {
		panic("rm: submission with empty TaskID")
	}
	if s.Runtime == nil && s.Hooks == nil {
		panic(fmt.Sprintf("rm: submission %s without Runtime or Hooks", s.ID()))
	}
	if s.Cores <= 0 {
		s.Cores = 1
	}
	s.submittedAt = m.eng.Now()
	s.placed = false
	s.prioGen = 0
	m.pending = append(m.pending, s)
	m.kick()
}

// kick coalesces schedule passes into one per event timestamp.
func (m *TaskManager) kick() {
	if m.schedulePending {
		return
	}
	m.schedulePending = true
	m.eng.After(0, m.kickFn)
}

// schedule is the dispatch hot path: one prioritized placement sweep over
// the pending queue driven by the cluster's free-capacity index (no
// per-submission node rescan), and one placed-entry compaction — all on
// reusable scratch, so a steady-state pass allocates nothing.
func (m *TaskManager) schedule() {
	if len(m.pending) == 0 {
		return
	}

	m.orderScratch = append(m.orderScratch[:0], m.pending...)
	ordered := m.strategy.Prioritize(m.orderScratch)
	anyPlaced := false
	// Backfill reservation state for this pass (see backfill.go): the first
	// capacity-blocked submission the oracle can predict reserves the node
	// where its capacity frees earliest; later submissions may use that
	// node's hole only if predicted to finish before the shadow time.
	var resNode *cluster.Node
	var shadow sim.Time
	now := m.eng.Now()
	// A first-fit strategy reads only the first candidate, so it gets just
	// that one, found by index descent instead of listing every fit; while
	// no reservation is held, a run of equal requests resumes where the
	// previous one left off (see fitCursor).
	firstFitOnly := DeclaresFirstFit(m.strategy)
	var cursor fitCursor
	for _, s := range ordered {
		if firstFitOnly {
			var n *cluster.Node
			if resNode == nil {
				n = cursor.next(m.cl, s)
			} else {
				n = m.firstFit(s, resNode, shadow, now)
			}
			m.candScratch = m.candScratch[:0]
			if n != nil {
				m.candScratch = append(m.candScratch, n)
			}
		} else {
			m.candScratch = m.cl.AppendCandidates(m.candScratch[:0], s.Cores, s.GPUs, s.Mem)
			if resNode != nil {
				m.candScratch = m.filterReserved(m.candScratch, s, resNode, shadow, now)
			}
		}
		if len(m.candScratch) == 0 {
			if resNode == nil && m.oracle != nil {
				resNode, shadow = m.reserve(s)
			}
			continue
		}
		node := m.strategy.PickNode(s, m.candScratch)
		if node == nil {
			continue
		}
		r := m.grabRunning()
		if err := m.cl.AllocateInto(&r.allocBox, node, s.Cores, s.GPUs, s.Mem); err != nil {
			m.freeRunning = append(m.freeRunning, r)
			continue // raced with nothing (single-threaded), but be safe
		}
		s.placed = true
		anyPlaced = true
		m.start(s, r)
	}
	if anyPlaced {
		rest := m.pending[:0]
		for _, s := range m.pending {
			if !s.placed {
				rest = append(rest, s)
			}
		}
		m.pending = rest
	}
}

// grabRunning pops a recycled running record or allocates a fresh one whose
// completion callback is bound exactly once.
func (m *TaskManager) grabRunning() *running {
	if n := len(m.freeRunning); n > 0 {
		r := m.freeRunning[n-1]
		m.freeRunning = m.freeRunning[:n-1]
		return r
	}
	r := &running{}
	r.endFn = func() {
		if err := r.sub.ValidateOn(r.alloc.Node); err != nil {
			m.finish(r, true, err)
			return
		}
		m.finish(r, false, nil)
	}
	return r
}

// start dispatches s on the reservation already written into r.allocBox.
func (m *TaskManager) start(s *Submission, r *running) {
	now := m.eng.Now()
	dur := s.RuntimeOn(r.allocBox.Node)
	if dur < 0 {
		dur = 0
	}
	r.sub, r.alloc, r.start = s, &r.allocBox, now
	r.end = now + sim.Time(dur)
	r.slot = len(m.running)
	m.running = append(m.running, r)
	m.started++
	m.waitSum += float64(now - s.submittedAt)
	r.endEv = m.eng.After(sim.Time(dur), r.endFn)
}

func (m *TaskManager) finish(r *running, failed bool, err error) {
	now := m.eng.Now()
	last := len(m.running) - 1
	moved := m.running[last]
	m.running[r.slot], moved.slot = moved, r.slot
	m.running[last] = nil
	m.running = m.running[:last]
	m.cl.Release(r.alloc)
	if failed {
		m.failed++
	} else {
		m.completed++
	}
	res := Result{
		Submission:  r.sub,
		Node:        r.alloc.Node,
		SubmittedAt: r.sub.submittedAt,
		StartedAt:   r.start,
		FinishedAt:  now,
		Failed:      failed,
		Err:         err,
	}
	sub := r.sub
	// r is finished exactly once (node-down cancels endEv before calling
	// finish), so the record can be recycled for a future start —
	// keeping its bound endFn and allocBox. Recycle before the Done
	// callback: Done may submit follow-up work that schedules immediately.
	r.sub, r.alloc, r.endEv, r.start = nil, nil, sim.Event{}, 0
	m.freeRunning = append(m.freeRunning, r)
	sub.Finish(res)
	m.kick()
}

func (m *TaskManager) handleNodeDown(n *cluster.Node) {
	victims := m.victims[:0]
	for _, r := range m.running {
		if r.alloc.Node == n {
			victims = append(victims, r)
		}
	}
	if len(victims) > 0 {
		// Fail victims in submission-ID order, whatever their slots. The
		// scratch is detached while their callbacks run.
		m.victims = nil
		slices.SortFunc(victims, func(a, b *running) int { return CompareID(a.sub, b.sub) })
		cause := m.downErr(n)
		for _, r := range victims {
			r.endEv.Cancel()
			m.finish(r, true, cause)
		}
		clear(victims)
	}
	m.victims = victims[:0]
	m.kick()
}

// downErr returns n's failure cause, built on n's first failure.
func (m *TaskManager) downErr(n *cluster.Node) *NodeFailedError {
	if m.downErrs == nil {
		m.downErrs = make([]*NodeFailedError, m.cl.NodeCount())
	}
	e := m.downErrs[n.ID]
	if e == nil {
		e = &NodeFailedError{Layer: "rm", Node: n.Name()}
		m.downErrs[n.ID] = e
	}
	return e
}

// RunStats aggregates one StreamRunner run's failure/recovery accounting.
type RunStats struct {
	Attempts         int     // attempts that reached a terminal Result
	Failures         int     // failed attempts, recovered or not
	Retries          int     // resubmissions scheduled by the policy
	TerminalFailures int     // tasks that exhausted the policy
	Skipped          int     // descendants cancelled by terminal failures
	BackoffSec       float64 // total backoff delay injected
}

// DefaultRuntime scales nominal duration by the node's speed/IO factors.
func DefaultRuntime(t *dag.Task, n *cluster.Node) float64 {
	cpu := t.NominalDur * (1 - t.IOFrac) / n.Type.SpeedFactor
	io := t.NominalDur * t.IOFrac / n.Type.IOFactor
	return cpu + io
}
