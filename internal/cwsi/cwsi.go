// Package cwsi implements the Common Workflow Scheduler (CWS) and its
// interface (CWSI) from §3: a component that lives inside the resource
// manager, receives workflow structure and task metadata from any WMS, and
// uses that information for workflow-aware scheduling, centralized
// provenance, and runtime prediction.
//
// The CWS plugs into rm.TaskManager as its Strategy, so a resource manager
// implements the CWS once and every CWSI-speaking workflow engine benefits
// ("a workflow engine needs to implement support for CWSI to work with all
// resource managers already offering CWSI").
package cwsi

import (
	"fmt"
	"sort"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/predict"
	"hhcw/internal/provenance"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// Context gives strategies access to everything the CWS knows: the DAG, the
// provenance store, and the trained predictor.
type Context struct {
	cws *CWS
}

// attemptOf returns the CWS attempt that wraps s, or nil when the CWS did
// not bind s (see Bind).
func attemptOf(s *rm.Submission) *taskRun {
	tr, _ := s.Hooks.(*taskRun)
	return tr
}

// Rank returns the upward rank of s's task within its workflow (0 for a
// submission the CWS did not bind). Ranks are computed at registration from
// nominal durations — the static DAG knowledge only a workflow-aware
// scheduler has.
func (c *Context) Rank(s *rm.Submission) float64 {
	if tr := attemptOf(s); tr != nil {
		return tr.st.ranks[tr.idx]
	}
	return 0
}

// Tenant returns the tenant slot the caller bound s's workflow with (see
// Bind), or -1 for a submission the CWS did not bind.
func (c *Context) Tenant(s *rm.Submission) int {
	if tr := attemptOf(s); tr != nil {
		return tr.st.tenant
	}
	return -1
}

// PredictRuntime estimates the runtime of s's task (by process name and
// input size) on a node, using the online predictor when trained and the
// declared nominal duration as fallback (0 for a submission the CWS did not
// bind).
func (c *Context) PredictRuntime(s *rm.Submission, n *cluster.Node) float64 {
	tr := attemptOf(s)
	if tr == nil {
		return 0
	}
	t := tr.t
	if c.cws.predictor != nil {
		if sec, ok := c.cws.predictor.Predict(t.Name, t.InputBytes, n.Type.SpeedFactor); ok {
			return sec
		}
	}
	return rm.DefaultRuntime(t, n)
}

// ObservedMeanRuntime returns the provenance-store mean reference runtime
// for a process name (ok=false before any successful execution). The store
// maintains the mean as a running aggregate, so this is O(1) per call.
func (c *Context) ObservedMeanRuntime(name string) (float64, bool) {
	return c.cws.prov.MeanRefRuntime(name)
}

// Strategy is a workflow-aware scheduling policy.
type Strategy interface {
	Name() string
	// Priority scores a pending submission; higher runs first.
	Priority(s *rm.Submission, ctx *Context) float64
	// PickNode chooses among feasible nodes (nil = skip this pass).
	PickNode(s *rm.Submission, candidates []*cluster.Node, ctx *Context) *cluster.Node
}

// wfState is a registered workflow's scheduler state. Every per-task table
// is indexed by the task's insertion position in wf (dag.Workflow.Index).
type wfState struct {
	wf    *dag.Workflow
	ranks []float64
	// hook is the runner hook Bind installs, bound to this state once, when
	// the state is first allocated, so an attempt finds its workflow without
	// a lookup.
	hook func(s *rm.Submission, t *dag.Task, idx, n int) rm.AttemptHook

	// The policy-less retry budget, the recovery policy's provenance label
	// and the caller's tenant slot of the runner driving the workflow (see
	// Bind).
	maxRetries int
	retryLabel string
	tenant     int

	// live counts the workflow's attempts begun and not yet done; a
	// released state returns to the pool once none is left (see
	// ReleaseWorkflow).
	live     int
	released bool

	// Predicted-critical-path ranks, memoized under the priority-cache
	// generation (see Context.PredictedRank); empty while the model is cold.
	predGen   uint64
	predRanks []float64
	// overruns counts walltime-overrun kills per task, inflating the next
	// attempt's budget (see SetOverrunPolicy). Lazily allocated.
	overruns []int
}

// CWS is the Common Workflow Scheduler.
type CWS struct {
	mgr       *rm.TaskManager
	prov      *provenance.Store
	predictor predict.RuntimePredictor
	memPred   *predict.MemPredictor
	strategy  Strategy
	workflows map[string]*wfState
	ctx       *Context

	// prioGen is the priority-cache generation: strategies' Priority values
	// are memoized per submission under this generation and recomputed only
	// after it advances — which happens whenever the knowledge Priority may
	// depend on changes (provenance records, new or released workflows).
	prioGen uint64
	// freeRuns recycles taskRun attempt records: an attempt is dead once its
	// Done hook returns (the manager drops every reference before invoking
	// it), so steady-state submission allocates only at peak concurrency.
	freeRuns []*taskRun
	// freeStates recycles released and reset workflow states, each with its
	// bound hook.
	freeStates []*wfState
	// retryPolicy and retryLabel memoize the provenance label of the last
	// recovery policy Bind saw (retryLabel is "" until the first), so a
	// session that binds the same policy every run renders it once.
	retryPolicy fault.RetryPolicy
	retryLabel  string

	// observer, when set, sees every terminal task attempt right after
	// provenance capture (see SetTaskObserver).
	observer func(tenant int, taskID dag.TaskID, attempt int, r rm.Result)

	// Prediction-loop knobs and accounting (see predictive.go).
	minPredSamples int     // warmth gate; <1 means 1
	overrunSlack   float64 // kill budget = predicted × slack; 0 disarms
	overrunInfl    float64 // per-overrun budget inflation; >= 1
	predErr        predict.Errors
}

// New creates a CWS over mgr with the given strategy and installs it as the
// manager's scheduling policy. predictor may be nil (no learned runtimes).
func New(mgr *rm.TaskManager, strategy Strategy, predictor predict.RuntimePredictor) *CWS {
	c := &CWS{
		mgr:       mgr,
		prov:      provenance.NewStore(),
		predictor: predictor,
		strategy:  strategy,
		workflows: map[string]*wfState{},
		prioGen:   1, // generation 0 is the rm.Submission "never cached" sentinel
	}
	c.ctx = &Context{cws: c}
	// The provenance→predict feed (§3.4): every record folds into the online
	// models as it is captured, including records ingested through paths that
	// bypass the scheduler's own completion hook.
	c.prov.SetTaskObserver(c.train)
	mgr.SetStrategy(&rmAdapter{cws: c})
	mgr.Cluster().OnNodeDown(func(n *cluster.Node) {
		c.prov.AddNodeEvent(provenance.NodeEvent{At: mgr.Cluster().Engine().Now(), Node: n.Name(), Kind: "down"})
	})
	return c
}

// Reset returns the scheduler to its just-constructed state over the same
// manager, installing the strategy and predictor the next run will use (the
// arguments New would have received). Every per-run knob — memory predictor,
// task observer, prediction gates — reverts to its
// construction default, the provenance store truncates in place, and the
// priority-cache generation restarts at 1 exactly as New sets it.
// Construction wiring survives untouched: the provenance→predict observer,
// the rmAdapter installed as the manager's strategy, and the cluster
// OnNodeDown trace subscription are set once in New and must not be
// registered again on a warm substrate. Pooled attempt records, the
// registered workflows' states with their bound hooks, and the memoized
// retry-policy label are retained.
func (c *CWS) Reset(strategy Strategy, predictor predict.RuntimePredictor) {
	c.prov.Reset()
	c.predictor = predictor
	c.memPred = nil
	c.strategy = strategy
	for _, st := range c.workflows {
		c.recycle(st)
	}
	clear(c.workflows)
	c.prioGen = 1
	c.observer = nil
	c.minPredSamples = 0
	c.overrunSlack, c.overrunInfl = 0, 0
	c.predErr = predict.Errors{}
}

// Provenance exposes the central provenance store (§3.3).
func (c *CWS) Provenance() *provenance.Store { return c.prov }

// SetMemPredictor enables memory right-sizing (§3.4, §6.1): first attempts
// of a task are submitted with the predicted peak (plus the predictor's
// safety margin) instead of the user's — typically inflated — request, so
// more tasks pack per node. An under-prediction manifests as an OOM kill;
// the retry falls back to the full declared request.
func (c *CWS) SetMemPredictor(p *predict.MemPredictor) { c.memPred = p }

// SetTaskObserver installs a hook invoked once per terminal task attempt,
// immediately after provenance capture and before the requester's own Done
// callback, with the tenant slot the attempt's workflow was bound with (see
// Bind). The service layer uses it for per-tenant accounting (queue
// waits, core-seconds): the observer fires at exactly the
// moments the priority-cache generation advances, so a fair-share strategy
// whose priorities derive from observer-maintained state is never stale.
// r.Submission must not be retained past the call (see rm.Result).
func (c *CWS) SetTaskObserver(fn func(tenant int, taskID dag.TaskID, attempt int, r rm.Result)) {
	c.observer = fn
}

// ReleaseWorkflow drops a finished workflow's scheduler state (DAG, ranks,
// overrun counts) and the provenance store's
// registered-workflow entry, so a long-running service that registers
// workflows per arrival keeps O(in-flight) rather than O(arrivals) state.
// Task records already captured are untouched. It is the caller's
// responsibility to release only workflows with no tasks still pending or
// running; the id simply disappears from Context.Workflow. Attempts still
// in flight keep the state they were bound to, so no memoized priority
// changes, and the state is recycled once the last of them is done.
// Releasing an unknown id is a no-op.
func (c *CWS) ReleaseWorkflow(id string) {
	st, ok := c.workflows[id]
	if !ok {
		return
	}
	delete(c.workflows, id)
	c.prov.ReleaseWorkflow(id)
	if st.live == 0 {
		c.recycle(st)
	} else {
		st.released = true
	}
}

// recycle returns a workflow state no attempt references to the pool. It
// keeps the bound hook and the capacity of both rank tables, which the
// state's next registration refills.
func (c *CWS) recycle(st *wfState) {
	*st = wfState{hook: st.hook, ranks: st.ranks[:0], predRanks: st.predRanks[:0]}
	c.freeStates = append(c.freeStates, st)
}

// RegisterWorkflow transfers a workflow's DAG to the CWS (§3.1): task
// dependencies, resource requests, data sizes and task-specific parameters.
// Bind then drives its tasks through the CWS.
func (c *CWS) RegisterWorkflow(id string, w *dag.Workflow) error {
	if _, dup := c.workflows[id]; dup {
		return fmt.Errorf("cwsi: workflow %q already registered", id)
	}
	if err := w.Validate(); err != nil {
		return fmt.Errorf("cwsi: workflow %q: %w", id, err)
	}
	var st *wfState
	if n := len(c.freeStates); n > 0 {
		st = c.freeStates[n-1]
		c.freeStates = c.freeStates[:n-1]
	} else {
		st = new(wfState)
		st.hook = func(s *rm.Submission, t *dag.Task, idx, n int) rm.AttemptHook {
			return c.begin(st, s, t, idx, n)
		}
	}
	st.wf, st.ranks = w, w.UpwardRanks(st.ranks, dag.NominalDur)
	c.workflows[id] = st
	c.prov.RegisterWorkflow(id, w)
	c.prioGen++
	return nil
}

// Bind readies sr to drive the registered workflow id through the CWS:
// its submissions carry id, and every attempt runs through a taskRun —
// memory right-sizing, walltime-overrun kills, OOM
// enforcement, and one provenance record per attempt. Set sr's Source (an
// expander over the registered workflow) and recovery policy first, then
// Start or Run it. Without a policy, a failed task is resubmitted at once up
// to maxRetries times; then the run fails (sr.Err). tenant is the caller's
// slot for the workflow's owner, which strategies read through
// Context.Tenant and the task observer receives; a caller without tenants
// passes 0.
func (c *CWS) Bind(sr *rm.StreamRunner, id string, maxRetries, tenant int) error {
	st := c.workflows[id]
	if st == nil {
		return fmt.Errorf("cwsi: workflow %q not registered", id)
	}
	st.maxRetries, st.retryLabel, st.tenant = maxRetries, "", tenant
	if sr.Retry != nil {
		if c.retryLabel == "" || *sr.Retry != c.retryPolicy {
			c.retryPolicy, c.retryLabel = *sr.Retry, sr.Retry.String()
		}
		st.retryLabel = c.retryLabel
	}
	sr.WorkflowID, sr.Hook = id, st.hook
	return nil
}

// begin is the runner hook Bind installs, bound to the workflow's state st:
// it draws a pooled taskRun for attempt n of t, wrapping s's callbacks,
// and right-sizes s's memory: the predicted peak on the first attempt (once
// the model is warm for the name), the full declared request after an OOM
// retry.
func (c *CWS) begin(st *wfState, s *rm.Submission, t *dag.Task, idx, n int) *taskRun {
	if n == 1 && c.memWarmFor(t.Name) {
		if pred, ok := c.memPred.Predict(t.Name); ok && pred < s.Mem {
			s.Mem = pred
		}
	}
	var tr *taskRun
	if k := len(c.freeRuns); k > 0 {
		tr = c.freeRuns[k-1]
		c.freeRuns = c.freeRuns[:k-1]
	} else {
		tr = new(taskRun)
	}
	*tr = taskRun{
		c: c, st: st, inner: s.Hooks, wfID: s.WorkflowID, t: t, idx: idx, attempt: n,
		grantedMem: s.Mem, submittedAt: c.mgr.Cluster().Engine().Now(),
	}
	st.live++
	s.Hooks = tr
	return tr
}

// taskRun is one CWS task attempt, wrapping the driving runner's callbacks
// in a single pooled record that implements rm.AttemptHook.
type taskRun struct {
	c           *CWS
	st          *wfState
	inner       rm.SubmissionHooks
	wfID        string
	t           *dag.Task
	idx         int // t's insertion position, keying the wfState tables
	attempt     int
	grantedMem  float64
	submittedAt sim.Time
	// rec is the index of the attempt's provenance record, set when Done
	// writes it; Backoff annotates that record.
	rec int

	// Prediction-loop state for this attempt: the warm prediction made at
	// placement (0 when cold) and whether the overrun policy truncated the
	// attempt at its kill budget.
	predicted float64
	overrun   bool
	budget    float64
}

// RuntimeOn implements rm.SubmissionHooks: the inner execution time. With an
// armed overrun policy and a warm model, an attempt that would exceed its
// predicted walltime budget is truncated at the budget — it occupies the
// node only that long — and fails validation as a walltime-overrun kill.
func (tr *taskRun) RuntimeOn(n *cluster.Node) float64 {
	c := tr.c
	d := tr.inner.RuntimeOn(n)
	if c.warmFor(tr.t.Name) {
		if sec, ok := c.predictor.Predict(tr.t.Name, tr.t.InputBytes, n.Type.SpeedFactor); ok {
			tr.predicted = sec
			if c.overrunSlack > 0 {
				budget := sec * c.overrunSlack
				if tr.st.overruns != nil {
					for i := 0; i < tr.st.overruns[tr.idx]; i++ {
						budget *= c.overrunInfl
					}
				}
				if d > budget {
					tr.overrun, tr.budget = true, budget
					return budget
				}
			}
		}
	}
	return d
}

// ValidateOn implements rm.SubmissionHooks: walltime-overrun kills, OOM
// enforcement, then the inner end's injected transient failure — the
// runner's fault plan, the only failure its ValidateOn reports — relabelled
// as the CWS's.
func (tr *taskRun) ValidateOn(n *cluster.Node) error {
	if tr.overrun {
		if tr.st.overruns == nil {
			tr.st.overruns = make([]int, tr.st.wf.Len())
		}
		tr.st.overruns[tr.idx]++
		return fmt.Errorf("cwsi: task %s walltime-overrun killed at %.1fs (predicted %.1fs, attempt %d)",
			tr.t.ID, tr.budget, tr.predicted, tr.attempt)
	}
	if tr.grantedMem < tr.t.PeakMem() {
		return fmt.Errorf("cwsi: task %s OOM-killed: granted %.0fB, peak %.0fB",
			tr.t.ID, tr.grantedMem, tr.t.PeakMem())
	}
	if err := tr.inner.ValidateOn(n); err != nil {
		// The inner failure is the runner's fresh value, held by no one
		// else: relabel it rather than build a second.
		te, ok := err.(*rm.TransientError)
		if !ok {
			te = &rm.TransientError{}
		}
		te.Layer, te.Task, te.Attempt = "cwsi", tr.t.ID, tr.attempt
		return te
	}
	return nil
}

// Done implements rm.SubmissionHooks: prediction accuracy, the provenance
// record, then the inner end's completion.
func (tr *taskRun) Done(r rm.Result) {
	c := tr.c
	if !r.Failed && tr.predicted > 0 {
		c.predErr.Observe(tr.predicted, float64(r.FinishedAt-r.StartedAt))
	}
	c.record(tr, r)
	tr.inner.Done(r)
	// The attempt is dead: the manager dropped its references before calling
	// Done and the inner callback has returned (r.Submission must not be
	// retained past it — see rm.Result). Recycle the record so steady-state
	// submission allocates only at peak concurrency, and the workflow's
	// state once its release waits on no attempt.
	st := tr.st
	st.live--
	if st.live == 0 && st.released {
		c.recycle(st)
	}
	*tr = taskRun{}
	c.freeRuns = append(c.freeRuns, tr)
}

// Backoff implements rm.AttemptHook: the policy's retry decision annotates
// the failed attempt's provenance record, which the same Done wrote just
// before (the runner decides the retry inside it).
func (tr *taskRun) Backoff(d sim.Time) {
	tr.c.prov.AnnotateRetry(tr.rec, float64(d), tr.st.retryLabel)
}

// Resubmit implements rm.AttemptHook: without a recovery policy a task gets
// the workflow's maxRetries immediate retries (see Bind), then fails it.
func (tr *taskRun) Resubmit(cause error) error {
	if tr.attempt <= tr.st.maxRetries {
		return nil
	}
	return fmt.Errorf("cwsi: task %s failed after %d retries: %v", tr.t.ID, tr.st.maxRetries, cause)
}

func (c *CWS) record(tr *taskRun, r rm.Result) {
	t := tr.t
	errMsg := ""
	if r.Err != nil {
		errMsg = r.Err.Error()
	}
	rec := provenance.TaskRecord{
		WorkflowID:  tr.wfID,
		TaskID:      t.ID,
		Name:        t.Name,
		Attempt:     tr.attempt,
		SubmittedAt: tr.submittedAt,
		StartedAt:   r.StartedAt,
		FinishedAt:  r.FinishedAt,
		Node:        r.Node.Name(),
		MachineType: r.Node.Type.Name,
		SpeedFactor: r.Node.Type.SpeedFactor,
		Cores:       t.Cores,
		MemRequest:  t.MemBytes,
		PeakMem:     t.PeakMem(),
		InputBytes:  t.InputBytes,
		OutputBytes: t.OutputBytes,
		Failed:      r.Failed,
		Error:       errMsg,
		Params:      t.Params,
	}
	// AddTask triggers the provenance→predict observer (CWS.train), which
	// folds the record into the online models before the generation bump
	// below invalidates memoized priorities.
	tr.rec = c.prov.AddTask(rec)
	c.prioGen++ // provenance advanced; memoized priorities may be stale
	if c.observer != nil {
		c.observer(tr.st.tenant, t.ID, tr.attempt, r)
	}
}

// rmAdapter bridges the CWS strategy into rm.Strategy. It doubles as the
// sort.Interface over (subs, keys) so a dispatch round sorts the manager's
// scratch slice in place with memoized priority keys — no per-round slice
// allocations and no O(n²) insertion sort.
type rmAdapter struct {
	cws  *CWS
	subs []*rm.Submission
	keys []float64
}

func (a *rmAdapter) Name() string { return "cws/" + a.cws.strategy.Name() }

func (a *rmAdapter) Len() int { return len(a.subs) }
func (a *rmAdapter) Swap(i, j int) {
	a.subs[i], a.subs[j] = a.subs[j], a.subs[i]
	a.keys[i], a.keys[j] = a.keys[j], a.keys[i]
}

// Less orders by descending priority; sort.Stable keeps equal keys in
// submission order — the same (priority desc, submission order asc) total
// order the historical insertion sort produced.
func (a *rmAdapter) Less(i, j int) bool { return a.keys[i] > a.keys[j] }

// Prioritize orders pending by descending priority, equal keys in
// submission order. Keys that are already non-increasing leave pending
// untouched, which is what the stable sort would return; FIFO strategies
// key everything alike, so their passes never sort.
func (a *rmAdapter) Prioritize(pending []*rm.Submission) []*rm.Submission {
	if len(pending) <= 1 {
		return pending // nothing to order; skip key filling entirely
	}
	gen := a.cws.prioGen
	if cap(a.keys) < len(pending) {
		a.keys = make([]float64, len(pending))
	}
	a.keys = a.keys[:len(pending)]
	ordered := true
	for i, s := range pending {
		k, ok := s.PriorityCache(gen)
		if !ok {
			k = a.cws.strategy.Priority(s, a.cws.ctx)
			s.SetPriorityCache(k, gen)
		}
		a.keys[i] = k
		// A NaN key fails the test and takes the sort, as before.
		ordered = ordered && (i == 0 || a.keys[i-1] >= k)
	}
	if ordered {
		return pending
	}
	a.subs = pending
	sort.Stable(a)
	a.subs = nil
	return pending
}

func (a *rmAdapter) PickNode(s *rm.Submission, candidates []*cluster.Node) *cluster.Node {
	return a.cws.strategy.PickNode(s, candidates, a.cws.ctx)
}

// FirstFitOnly implements rm.FirstFitter, forwarding the declaration of the
// CWS strategy currently installed.
func (a *rmAdapter) FirstFitOnly() bool { return rm.DeclaresFirstFit(a.cws.strategy) }
