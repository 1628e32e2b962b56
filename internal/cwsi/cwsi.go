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
	"strconv"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/predict"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// Interface is the CWSI wire surface as a WMS sees it. CWS implements it;
// WMS adapters (see wms.go) speak it.
type Interface interface {
	// RegisterWorkflow transfers the workflow DAG — task dependencies,
	// resource requests, data sizes, task-specific parameters.
	RegisterWorkflow(id string, w *dag.Workflow) error
	// SubmitTask submits one ready-to-run task of a registered workflow.
	SubmitTask(req TaskRequest) error
	// WorkflowDone tells the CWS no more tasks of this workflow will come.
	WorkflowDone(id string)
}

// TaskRequest is a CWSI task submission.
type TaskRequest struct {
	WorkflowID string
	TaskID     dag.TaskID
	// Runtime computes actual execution time on a node. If nil, the
	// default heterogeneity model (rm.DefaultRuntime) is used.
	Runtime func(t *dag.Task, n *cluster.Node) float64
	// Done is invoked with the terminal result (after provenance capture).
	Done func(rm.Result)
	// Handler, consulted when Done is nil, receives the terminal result
	// without a per-task closure — a driver submitting many tasks
	// implements it once and the task identity rides along as an argument.
	Handler TaskDoneHandler
	// Params are task-invocation parameters, stored for provenance.
	Params map[string]string
}

// TaskDoneHandler is the closure-free completion callback of a TaskRequest.
type TaskDoneHandler interface {
	OnTaskDone(taskID dag.TaskID, r rm.Result)
}

// Context gives strategies access to everything the CWS knows: the DAG, the
// provenance store, and the trained predictor.
type Context struct {
	cws *CWS
}

// Workflow returns the registered workflow for id, or nil.
func (c *Context) Workflow(id string) *dag.Workflow {
	if st := c.cws.workflows[id]; st != nil {
		return st.wf
	}
	return nil
}

// Rank returns the upward rank of a task within its workflow (0 when the
// workflow is unknown). Ranks are computed at registration from nominal
// durations — the static DAG knowledge only a workflow-aware scheduler has.
func (c *Context) Rank(wfID string, taskID dag.TaskID) float64 {
	if st := c.cws.workflows[wfID]; st != nil {
		if i, ok := st.wf.Index(taskID); ok {
			return st.ranks[i]
		}
	}
	return 0
}

// PredictRuntime estimates the runtime of a task (by process name and input
// size) on a node, using the online predictor when trained and the declared
// nominal duration as fallback.
func (c *Context) PredictRuntime(wfID string, taskID dag.TaskID, n *cluster.Node) float64 {
	st := c.cws.workflows[wfID]
	if st == nil {
		return 0
	}
	t := st.wf.Task(taskID)
	if t == nil {
		return 0
	}
	if c.cws.predictor != nil {
		// Prefer Kubestone-style measured machine characteristics over the
		// declared spec (§3.4); they coincide unless hardware misbehaves.
		if sec, ok := c.cws.predictor.Predict(t.Name, t.InputBytes, c.MeasuredSpeed(n)); ok {
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
	wf       *dag.Workflow
	ranks    []float64
	attempts []int
	done     bool

	// Predicted-critical-path ranks, memoized under the priority-cache
	// generation (see Context.PredictedRank); nil while the model is cold.
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

	// Data-plane model (see locality.go).
	dataBW  float64
	outputs map[outKey]*cluster.Node

	// prioGen is the priority-cache generation: strategies' Priority values
	// are memoized per submission under this generation and recomputed only
	// after it advances — which happens whenever the knowledge Priority may
	// depend on changes (provenance records, data locality, new workflows).
	prioGen uint64
	// idScratch builds submission IDs without fmt.
	idScratch []byte
	// freeRuns recycles taskRun attempt records: an attempt is dead once its
	// Done hook returns (the manager drops every reference before invoking
	// it), so steady-state submission allocates only at peak concurrency.
	freeRuns []*taskRun
	// freeWfRuns recycles settled workflow drivers with their readiness and
	// retry maps, so a warm CWS starts workflows without reallocating them.
	freeWfRuns []*wfRun

	// Measured machine characteristics (see profiling.go).
	measuredSpeed map[string]float64

	// Shared recovery policy (see SetRecovery); nil keeps the legacy
	// per-call maxRetries counters.
	recovery    *fault.RetryPolicy
	recoveryRNG *randx.Source
	// recoveryLabel is recovery.String(), rendered once for the provenance
	// retry annotations.
	recoveryLabel string
	injectFail    func(wfID string, taskID dag.TaskID, attempt int) bool
	// recStats aggregates recovery accounting across every workflow driven
	// through StartWorkflow (Attempts and Timeouts stay zero: attempts are
	// in provenance, and the CWS arms no attempt timeouts).
	recStats rm.RunStats

	// observer, when set, sees every terminal task attempt right after
	// provenance capture (see SetTaskObserver).
	observer func(wfID string, taskID dag.TaskID, attempt int, r rm.Result)

	// Prediction-loop knobs and accounting (see predictive.go).
	minPredSamples int     // warmth gate; <1 means 1
	overrunSlack   float64 // kill budget = predicted × slack; 0 disarms
	overrunInfl    float64 // per-overrun budget inflation; >= 1
	overrunKills   int
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
// data bandwidth, recovery policy, fault injection, task observer, prediction
// gates — reverts to its construction default, the provenance store truncates
// in place, and the priority-cache generation restarts at 1 exactly as New
// sets it. Construction wiring survives untouched: the provenance→predict
// observer, the rmAdapter installed as the manager's strategy, and the
// cluster OnNodeDown trace subscription are registered once in New and must
// not be registered again on a warm substrate. Pooled attempt records and
// scratch buffers are retained.
func (c *CWS) Reset(strategy Strategy, predictor predict.RuntimePredictor) {
	c.prov.Reset()
	c.predictor = predictor
	c.memPred = nil
	c.strategy = strategy
	clear(c.workflows)
	c.dataBW = 0
	clear(c.outputs)
	c.prioGen = 1
	clear(c.measuredSpeed)
	c.recovery = nil
	c.recoveryRNG = nil
	c.recoveryLabel = ""
	c.injectFail = nil
	c.recStats = rm.RunStats{}
	c.observer = nil
	c.minPredSamples = 0
	c.overrunSlack, c.overrunInfl = 0, 0
	c.overrunKills = 0
	c.predErr = predict.Errors{}
}

// Provenance exposes the central provenance store (§3.3).
func (c *CWS) Provenance() *provenance.Store { return c.prov }

// Predictor returns the online runtime predictor, if any.
func (c *CWS) Predictor() predict.RuntimePredictor { return c.predictor }

// SetMemPredictor enables memory right-sizing (§3.4, §6.1): first attempts
// of a task are submitted with the predicted peak (plus the predictor's
// safety margin) instead of the user's — typically inflated — request, so
// more tasks pack per node. An under-prediction manifests as an OOM kill;
// the retry falls back to the full declared request.
func (c *CWS) SetMemPredictor(p *predict.MemPredictor) { c.memPred = p }

// Manager returns the underlying resource manager.
func (c *CWS) Manager() *rm.TaskManager { return c.mgr }

// SetRecovery installs the shared fault.RetryPolicy: StartWorkflow then
// derives its retry budget from the policy, delays resubmissions by the
// policy's capped exponential backoff (deterministic jitter from rng, which
// may be nil), circuit-breaks on the policy's threshold, and degrades
// gracefully — a terminally failed task abandons its unreachable descendants
// instead of failing the whole workflow. The per-call maxRetries argument is
// ignored while a policy is installed.
func (c *CWS) SetRecovery(p fault.RetryPolicy, rng *randx.Source) {
	c.recovery = &p
	c.recoveryRNG = rng
	c.recoveryLabel = p.String()
}

// SetFaultInjection installs a transient task-failure predicate consulted at
// each attempt's completion (fault.Profile.PlanTaskFailures drives it in
// chaos runs). A true return fails the attempt with an injected error.
func (c *CWS) SetFaultInjection(fn func(wfID string, taskID dag.TaskID, attempt int) bool) {
	c.injectFail = fn
}

// RecoveryStats returns the accumulated recovery accounting.
func (c *CWS) RecoveryStats() rm.RunStats { return c.recStats }

// SetTaskObserver installs a hook invoked once per terminal task attempt,
// immediately after provenance capture and before the requester's own Done
// callback. The service layer uses it for per-tenant accounting (queue
// waits, core-seconds, quota release): the observer fires at exactly the
// moments the priority-cache generation advances, so a fair-share strategy
// whose priorities derive from observer-maintained state is never stale.
// r.Submission must not be retained past the call (see rm.Result).
func (c *CWS) SetTaskObserver(fn func(wfID string, taskID dag.TaskID, attempt int, r rm.Result)) {
	c.observer = fn
}

// ReleaseWorkflow drops a finished workflow's scheduler state (DAG, ranks,
// attempt counters) and the provenance store's registered-workflow entry, so
// a long-running service that registers workflows per arrival keeps
// O(in-flight) rather than O(arrivals) state. Task records already captured
// are untouched (retention stays governed by provenance.SetCompact). It is
// the caller's responsibility to release only workflows with no tasks still
// pending or running; the entry simply disappears for strategy Context
// lookups. Releasing an unknown id is a no-op.
func (c *CWS) ReleaseWorkflow(id string) {
	if _, ok := c.workflows[id]; !ok {
		return
	}
	delete(c.workflows, id)
	c.prov.ReleaseWorkflow(id)
	c.prioGen++ // Context lookups for id now miss; memoized priorities may be stale
}

// RegisterWorkflow implements Interface.
func (c *CWS) RegisterWorkflow(id string, w *dag.Workflow) error {
	if _, dup := c.workflows[id]; dup {
		return fmt.Errorf("cwsi: workflow %q already registered", id)
	}
	if err := w.Validate(); err != nil {
		return fmt.Errorf("cwsi: workflow %q: %w", id, err)
	}
	c.workflows[id] = &wfState{
		wf:       w,
		ranks:    w.UpwardRanks(dag.NominalDur),
		attempts: make([]int, w.Len()),
	}
	c.prov.RegisterWorkflow(id, w)
	c.prioGen++
	return nil
}

// SubmitTask implements Interface.
func (c *CWS) SubmitTask(req TaskRequest) error {
	st := c.workflows[req.WorkflowID]
	if st == nil {
		return fmt.Errorf("cwsi: workflow %q not registered", req.WorkflowID)
	}
	idx, ok := st.wf.Index(req.TaskID)
	if !ok {
		return fmt.Errorf("cwsi: task %q not in workflow %q", req.TaskID, req.WorkflowID)
	}
	t := st.wf.At(idx)
	runtime := req.Runtime
	if runtime == nil {
		runtime = rm.DefaultRuntime
	}
	st.attempts[idx]++
	attempt := st.attempts[idx]
	submittedAt := c.mgr.Cluster().Engine().Now()

	// Memory right-sizing: predicted peak on the first attempt (once the
	// model is warm for the name), the full declared request after an OOM
	// retry.
	mem := t.MemBytes
	if attempt == 1 && c.memWarmFor(t.Name) {
		if pred, ok := c.memPred.Predict(t.Name); ok && pred < mem {
			mem = pred
		}
	}
	var tr *taskRun
	if n := len(c.freeRuns); n > 0 {
		tr = c.freeRuns[n-1]
		c.freeRuns = c.freeRuns[:n-1]
	} else {
		tr = new(taskRun)
	}
	*tr = taskRun{
		c: c, req: req, t: t, idx: idx, attempt: attempt,
		grantedMem: mem, submittedAt: submittedAt, runtime: runtime,
	}
	tr.sub = rm.Submission{
		ID:         c.subID(req.WorkflowID, req.TaskID, attempt),
		WorkflowID: req.WorkflowID,
		TaskID:     req.TaskID,
		Name:       t.Name,
		Cores:      t.Cores,
		GPUs:       t.GPUs,
		Mem:        mem,
		InputBytes: t.InputBytes,
		Hooks:      tr,
	}
	c.mgr.Submit(&tr.sub)
	return nil
}

// taskRun bundles one CWSI task attempt — the rm.Submission plus every
// callback's state — into a single allocation implementing
// rm.SubmissionHooks, replacing three per-task closures and their captures.
type taskRun struct {
	c           *CWS
	req         TaskRequest
	t           *dag.Task
	idx         int // t's insertion position, keying the wfState tables
	attempt     int
	grantedMem  float64
	submittedAt sim.Time
	runtime     func(*dag.Task, *cluster.Node) float64
	sub         rm.Submission

	// Prediction-loop state for this attempt: the warm prediction made at
	// placement (0 when cold) and whether the overrun policy truncated the
	// attempt at its kill budget.
	predicted float64
	overrun   bool
	budget    float64
}

// RuntimeOn implements rm.SubmissionHooks: execution time plus staging of
// non-local input bytes when the data-plane model is on. With an armed
// overrun policy and a warm model, an attempt that would exceed its
// predicted walltime budget is truncated at the budget — it occupies the
// node only that long — and fails validation as a walltime-overrun kill.
func (tr *taskRun) RuntimeOn(n *cluster.Node) float64 {
	c := tr.c
	d := tr.runtime(tr.t, n)
	if c.dataBW > 0 {
		d += c.remoteInputBytes(tr.req.WorkflowID, tr.t, n) / c.dataBW
	}
	if c.warmFor(tr.t.Name) {
		if sec, ok := c.predictor.Predict(tr.t.Name, tr.t.InputBytes, c.ctx.MeasuredSpeed(n)); ok {
			tr.predicted = sec
			if c.overrunSlack > 0 {
				budget := sec * c.overrunSlack
				if st := c.workflows[tr.req.WorkflowID]; st != nil && st.overruns != nil {
					for i := 0; i < st.overruns[tr.idx]; i++ {
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
// enforcement, and injected transient failures.
func (tr *taskRun) ValidateOn(n *cluster.Node) error {
	if tr.overrun {
		c := tr.c
		c.overrunKills++
		if st := c.workflows[tr.req.WorkflowID]; st != nil {
			if st.overruns == nil {
				st.overruns = make([]int, st.wf.Len())
			}
			st.overruns[tr.idx]++
		}
		return fmt.Errorf("cwsi: task %s walltime-overrun killed at %.1fs (predicted %.1fs, attempt %d)",
			tr.req.TaskID, tr.budget, tr.predicted, tr.attempt)
	}
	if tr.grantedMem < tr.t.PeakMem() {
		return fmt.Errorf("cwsi: task %s OOM-killed: granted %.0fB, peak %.0fB",
			tr.req.TaskID, tr.grantedMem, tr.t.PeakMem())
	}
	if tr.c.injectFail != nil && tr.c.injectFail(tr.req.WorkflowID, tr.req.TaskID, tr.attempt) {
		return fmt.Errorf("cwsi: injected transient failure of %s (attempt %d)", tr.req.TaskID, tr.attempt)
	}
	return nil
}

// Done implements rm.SubmissionHooks: provenance capture, locality notes,
// then the requester's callback.
func (tr *taskRun) Done(r rm.Result) {
	c := tr.c
	if !r.Failed {
		c.noteOutput(tr.req.WorkflowID, tr.req.TaskID, r.Node)
		if tr.predicted > 0 {
			c.predErr.Observe(tr.predicted, float64(r.FinishedAt-r.StartedAt))
		}
	}
	c.record(tr.req, tr.t, tr.attempt, tr.submittedAt, r)
	if tr.req.Done != nil {
		tr.req.Done(r)
	} else if tr.req.Handler != nil {
		tr.req.Handler.OnTaskDone(tr.req.TaskID, r)
	}
	// The attempt is dead: the manager dropped its references before calling
	// Done and the requester's callback has returned (r.Submission must not
	// be retained past it — see rm.Result). Recycle the record so
	// steady-state submission allocates only at peak concurrency.
	*tr = taskRun{}
	c.freeRuns = append(c.freeRuns, tr)
}

// subID renders "wf/task#attempt" on a reusable scratch buffer — one string
// allocation instead of fmt's boxing and formatting.
func (c *CWS) subID(wfID string, taskID dag.TaskID, attempt int) string {
	b := append(c.idScratch[:0], wfID...)
	b = append(b, '/')
	b = append(b, taskID...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(attempt), 10)
	c.idScratch = b
	return string(b)
}

func (c *CWS) record(req TaskRequest, t *dag.Task, attempt int, submittedAt sim.Time, r rm.Result) {
	errMsg := ""
	if r.Err != nil {
		errMsg = r.Err.Error()
	}
	// A submission aborted while still pending (attempt timeout) never got a
	// node; record it with an empty placement.
	nodeName, machineType, speedFactor := "", "", 0.0
	if r.Node != nil {
		nodeName, machineType, speedFactor = r.Node.Name(), r.Node.Type.Name, r.Node.Type.SpeedFactor
	}
	rec := provenance.TaskRecord{
		WorkflowID:  req.WorkflowID,
		TaskID:      req.TaskID,
		Name:        t.Name,
		Attempt:     attempt,
		SubmittedAt: submittedAt,
		StartedAt:   r.StartedAt,
		FinishedAt:  r.FinishedAt,
		Node:        nodeName,
		MachineType: machineType,
		SpeedFactor: speedFactor,
		Cores:       t.Cores,
		MemRequest:  t.MemBytes,
		PeakMem:     t.PeakMem(),
		InputBytes:  t.InputBytes,
		OutputBytes: t.OutputBytes,
		Failed:      r.Failed,
		Error:       errMsg,
		Params:      req.Params,
	}
	// AddTask triggers the provenance→predict observer (CWS.train), which
	// folds the record into the online models before the generation bump
	// below invalidates memoized priorities.
	c.prov.AddTask(rec)
	c.prioGen++ // provenance advanced; memoized priorities may be stale
	if c.observer != nil {
		c.observer(req.WorkflowID, req.TaskID, attempt, r)
	}
}

// WorkflowDone implements Interface.
func (c *CWS) WorkflowDone(id string) {
	if st := c.workflows[id]; st != nil {
		st.done = true
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

func (a *rmAdapter) Prioritize(pending []*rm.Submission) []*rm.Submission {
	if len(pending) <= 1 {
		return pending // nothing to order; skip key filling entirely
	}
	gen := a.cws.prioGen
	if cap(a.keys) < len(pending) {
		a.keys = make([]float64, len(pending))
	}
	a.keys = a.keys[:len(pending)]
	for i, s := range pending {
		k, ok := s.PriorityCache(gen)
		if !ok {
			k = a.cws.strategy.Priority(s, a.cws.ctx)
			s.SetPriorityCache(k, gen)
		}
		a.keys[i] = k
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

// StartWorkflow begins driving a registered workflow without running the
// engine, so several workflows can share one cluster concurrently (the
// multi-tenant setting the CWS evaluation uses). onDone fires once with the
// workflow's makespan or an error.
//
// Without a recovery policy (SetRecovery), failed tasks are resubmitted
// immediately up to maxRetries times and the first terminal failure fails the
// workflow. With a policy, the policy's attempt budget replaces maxRetries,
// resubmissions wait out the policy's backoff (recorded into provenance), the
// breaker can abandon retries cluster-wide, and a terminal failure degrades
// gracefully: the task's unreachable descendants are abandoned and the rest
// of the workflow completes on the healthy capacity.
func (c *CWS) StartWorkflow(id string, maxRetries int, onDone func(sim.Time, error)) error {
	st := c.workflows[id]
	if st == nil {
		return fmt.Errorf("cwsi: workflow %q not registered", id)
	}
	var run *wfRun
	if n := len(c.freeWfRuns); n > 0 {
		run = c.freeWfRuns[n-1]
		c.freeWfRuns = c.freeWfRuns[:n-1]
	} else {
		run = new(wfRun)
	}
	eng := c.mgr.Cluster().Engine()
	*run = wfRun{
		c:          c,
		id:         id,
		x:          run.x,
		eng:        eng,
		start:      eng.Now(),
		wf:         st.wf,
		remaining:  st.wf.Len(),
		retries:    append(run.retries[:0], make([]int, st.wf.Len())...),
		maxRetries: maxRetries,
		limit:      maxRetries,
		onDone:     onDone,
	}
	if err := run.x.Reset(st.wf); err != nil {
		return err
	}
	if c.recovery != nil {
		run.limit = c.recovery.Attempts() - 1
		run.breaker = c.recovery.NewBreaker()
	}
	run.submitReady()
	return nil
}

// wfRun is one StartWorkflow execution: readiness and write-offs come from a
// dag.WorkflowExpander, and wfRun is the shared completion handler
// (TaskDoneHandler), so driving a task costs one TaskRequest instead of a
// fresh Done closure per submission.
type wfRun struct {
	c          *CWS
	id         string
	x          dag.WorkflowExpander
	wf         *dag.Workflow
	eng        *sim.Engine
	start      sim.Time
	remaining  int
	retries    []int // per task, by insertion position in wf
	finished   bool
	maxRetries int
	limit      int
	breaker    *fault.Breaker
	onDone     func(sim.Time, error)
}

func (run *wfRun) fail(err error) {
	if !run.finished {
		run.finished = true
		run.onDone(0, err)
	}
}

// complete counts n more tasks terminal and finishes the workflow when none
// remain.
func (run *wfRun) complete(n int) {
	run.remaining -= n
	if run.remaining == 0 && !run.finished {
		run.finished = true
		run.c.WorkflowDone(run.id)
		run.onDone(run.eng.Now()-run.start, nil)
	}
}

// release returns a settled run — every task terminal, so no attempt or
// retry timer still references it — to the CWS pool.
func (run *wfRun) release() {
	c := run.c
	run.x.Reset(nil)
	*run = wfRun{x: run.x, retries: run.retries[:0]}
	c.freeWfRuns = append(c.freeWfRuns, run)
}

// submitReady submits every task the expander reports ready.
func (run *wfRun) submitReady() {
	for t, _, ok := run.x.Next(); ok; t, _, ok = run.x.Next() {
		run.submit(t.ID)
	}
}

func (run *wfRun) submit(id dag.TaskID) {
	err := run.c.SubmitTask(TaskRequest{WorkflowID: run.id, TaskID: id, Handler: run})
	if err != nil {
		run.fail(err)
	}
}

// OnTaskDone implements TaskDoneHandler.
func (run *wfRun) OnTaskDone(taskID dag.TaskID, r rm.Result) {
	c := run.c
	if r.Failed {
		c.recStats.Failures++
		run.breaker.Record(true)
		i, _ := run.wf.Index(taskID)
		if run.retries[i] < run.limit && !run.breaker.Open() {
			run.retries[i]++
			if c.recovery == nil {
				run.submit(taskID)
				return
			}
			d := c.recovery.Backoff(run.retries[i], c.recoveryRNG)
			c.recStats.Retries++
			c.recStats.BackoffSec += float64(d)
			c.prov.AnnotateRetry(run.id, taskID, float64(d), c.recoveryLabel)
			run.eng.After(d, func() { run.submit(taskID) })
			return
		}
		c.recStats.TerminalFailures++
		if c.recovery == nil {
			run.fail(fmt.Errorf("cwsi: task %s failed after %d retries: %v", taskID, run.maxRetries, r.Err))
			return
		}
		skipped := run.x.TaskFailed(taskID)
		c.recStats.Skipped += skipped
		run.complete(1 + skipped)
	} else {
		run.breaker.Record(false)
		run.x.TaskDone(taskID)
		run.complete(1)
		if !run.finished {
			run.submitReady()
		}
	}
	if run.remaining == 0 {
		run.release()
	}
}

// RunWorkflow drives a registered workflow through the CWS: tasks are
// submitted as dependencies complete and failed tasks are resubmitted up to
// maxRetries times. It runs the engine and returns the makespan.
func (c *CWS) RunWorkflow(id string, maxRetries int) (sim.Time, error) {
	eng := c.mgr.Cluster().Engine()
	var makespan sim.Time
	var runErr error
	done := false
	err := c.StartWorkflow(id, maxRetries, func(ms sim.Time, err error) {
		makespan, runErr = ms, err
		done = true
		if err != nil {
			eng.Halt()
		}
	})
	if err != nil {
		return 0, err
	}
	eng.Run()
	if runErr != nil {
		return 0, runErr
	}
	if !done {
		return 0, fmt.Errorf("cwsi: workflow %q stalled (cluster too small for a request?)", id)
	}
	return makespan, nil
}
