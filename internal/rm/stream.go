package rm

import (
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// StreamRunner is the task driver: it pulls ready tasks from a dag.Expander
// and submits them to an Executor (a TaskManager, a pilot, an instance
// fleet) as capacity and the MaxResident window allow, resubmits failed
// attempts under the recovery policy, and retires each task — observed by
// the Observe hook, then recycled by the expander — the moment it turns
// terminal. A materialized workflow runs through dag.WorkflowExpander; lazy
// sources (jaws scatter, entk stages, workflow refs) stream, so resident
// state is O(in-flight), not O(tasks).
//
// Each attempt's Submission carries the WorkflowID, the task's ID and the
// attempt number; its ID, "<WorkflowID>/<task>" for a task's first attempt
// and "<WorkflowID>/<task>#<n>" for its nth, is built only when something
// reads it (see Submission.ID). With Retry set the runner is also the
// chaos harness: failed attempts (node loss, injected transient faults) are
// resubmitted after the policy's capped exponential backoff until the
// attempt budget is exhausted, and a terminally failed task writes off its
// unreachable descendants (via Expander.TaskFailed) so the rest of the
// workflow degrades gracefully on the healthy capacity instead of stalling.
//
// With Hook set, every attempt also runs through an AttemptHook — the seam
// the Common Workflow Scheduler drives its workflows through (see
// AttemptHook). Without a recovery policy such a run resubmits a failed task
// at once for as long as the hook allows, and fails (Err) when it refuses.
//
// MaxResident == 0 leaves admission unthrottled: every ready task is
// submitted the moment it becomes ready. A positive MaxResident bounds
// emitted-but-not-terminal tasks; scheduling is still deterministic, and for
// workloads whose concurrently-ready tasks share one resource shape (scatter
// shards) the schedule is provably identical to the unthrottled one as long
// as the window exceeds the cluster's concurrency (see docs/scale.md).
//
// A runner is reusable: Start zeroes every per-run counter, and Reset clears
// the per-run wiring so a warm session's pooled runner audits identically to
// a fresh one.
type StreamRunner struct {
	Manager Executor
	Source  dag.Expander
	// Runtime maps a task and node to an execution time. If nil, nominal
	// duration scaled by node speed is used.
	Runtime func(t *dag.Task, n *cluster.Node) float64
	// WorkflowID labels submissions for CWSI-aware strategies.
	WorkflowID string

	// Retry, when non-nil, is the recovery policy applied to every failed
	// attempt. Nil preserves fail-fast semantics (one attempt).
	Retry *fault.RetryPolicy
	// RetryRNG supplies deterministic backoff jitter (may be nil).
	RetryRNG *randx.Source
	// FailPlan returns how many leading attempts of the task at insertion
	// index idx fail with an injected transient error
	// (fault.Profile.PlanTaskFailures output, indexed as the expander
	// emits), so the fault plan needs no materialized task list.
	FailPlan func(idx int) int
	// OnComplete fires once, when the last task turns terminal — the hook
	// that stops a fault.Injector so the engine can drain.
	OnComplete func()
	// Observe, when non-nil, sees every task's terminal result just before
	// the task is retired. The Task and Result are only valid for the call.
	Observe func(t *dag.Task, r Result)
	// MaxResident caps tasks emitted but not yet terminal (0 = unlimited).
	MaxResident int
	// Hook, when non-nil, wraps every attempt. The runner calls it as it
	// submits attempt n of the task t at insertion index idx, with s filled
	// in and s.Hooks set to the runner's own callbacks; the hook returned
	// must call through to those, and the runner installs it as s.Hooks in
	// their place. Hook may lower s.Mem.
	Hook func(s *Submission, t *dag.Task, idx, n int) AttemptHook

	total        int
	doneCount    int
	resident     int
	peakResident int
	finishAt     sim.Time
	stats        RunStats
	err          error
	// freeAttempts recycles attempt records; an attempt stays live across
	// its own retries and is recycled at its task's terminal result, so
	// steady-state submission allocates only at peak concurrency.
	freeAttempts []*attempt
}

// attempt is one task's submission state: the Submission and every
// per-attempt callback bundled into a single pooled allocation. It carries
// the task across retries (a streaming source has no task map to look
// things up in) plus its insertion index and resolved fault-plan count.
type attempt struct {
	sr         *StreamRunner
	task       *dag.Task
	idx        int
	attempt    int
	failN      int
	resubmitFn func()
	hook       AttemptHook
	sub        Submission
}

// AttemptHook wraps one attempt of a StreamRunner task (see
// StreamRunner.Hook). The manager calls its RuntimeOn, ValidateOn and Done
// in place of the runner's, and each calls through to the runner's own: so
// a hook can adjust the runner's runtime, fail the attempt before the
// runner's injected failure is checked, and see the result before the
// runner acts on it. The runner's Done then calls back into the hook, still
// inside the hook's Done, when it decides a failed attempt's retry.
type AttemptHook interface {
	SubmissionHooks
	// Backoff is told the delay of the retry the recovery policy scheduled
	// after this attempt failed.
	Backoff(d sim.Time)
	// Resubmit decides, on a runner without a recovery policy, what becomes
	// of the task whose attempt failed with cause: nil resubmits it at once
	// (neither retry nor backoff is counted); an error fails the run with it.
	Resubmit(cause error) error
}

// RuntimeOn implements SubmissionHooks.
func (a *attempt) RuntimeOn(n *cluster.Node) float64 { return a.sr.Runtime(a.task, n) }

// ValidateOn implements SubmissionHooks.
func (a *attempt) ValidateOn(n *cluster.Node) error {
	if a.attempt <= a.failN {
		return &TransientError{Layer: "rm", Task: a.task.ID, Attempt: a.attempt}
	}
	return nil
}

// Done implements SubmissionHooks.
func (a *attempt) Done(r Result) {
	sr := a.sr
	// Observers must not pin the pooled Submission (see Result).
	r.Submission = nil
	sr.stats.Attempts++
	if r.Failed {
		sr.stats.Failures++
		if sr.Retry != nil && sr.Retry.ShouldRetry(a.attempt) {
			d := sr.Retry.Backoff(a.attempt, sr.RetryRNG)
			sr.stats.Retries++
			sr.stats.BackoffSec += float64(d)
			if a.hook != nil {
				a.hook.Backoff(d)
			}
			if a.resubmitFn == nil {
				a.resubmitFn = func() {
					a.attempt++
					a.sr.start(a)
				}
			}
			sr.Manager.Engine().After(d, a.resubmitFn)
			return
		}
		asked := sr.Retry == nil && a.hook != nil && sr.err == nil
		if asked {
			if sr.err = a.hook.Resubmit(r.Err); sr.err == nil {
				a.attempt++
				sr.start(a)
				return
			}
		}
		sr.stats.TerminalFailures++
		task := a.task
		id := task.ID // retire recycles task
		sr.recycle(a)
		sr.retire(task, r)
		if asked {
			// The hook failed the run: it writes nothing off, submits no
			// further task and never completes. Attempts in flight drain.
			if sr.OnComplete != nil {
				sr.OnComplete()
			}
			return
		}
		skipped := sr.Source.TaskFailed(id)
		sr.stats.Skipped += skipped
		if !sr.taskDone(1 + skipped) {
			sr.pull()
		}
		return
	}
	task := a.task
	id := task.ID
	sr.recycle(a)
	sr.retire(task, r)
	// The source learns of the completion before completion accounting runs:
	// a dynamic expander (EnTK PostExec, ref splices) may grow Total here,
	// and taskDone must see the grown denominator or it would declare the
	// run complete with stages still pending.
	sr.Source.TaskDone(id)
	if !sr.taskDone(1) {
		sr.pull()
	}
}

// Run pulls the expansion through the executor until it drains and returns
// the makespan in virtual seconds (0 when the run failed; see Err).
func (sr *StreamRunner) Run() sim.Time {
	eng := sr.Manager.Engine()
	startAt := eng.Now()
	sr.Start()
	eng.Run()
	if sr.Err() != nil {
		return 0
	}
	return sr.finishAt - startAt
}

// StallError reports a run whose engine drained before every task settled:
// some request fits no node, so the tasks left can never start.
type StallError struct {
	Workflow    string // the expansion's name
	Done, Total int    // tasks settled, tasks expected
}

func (e *StallError) Error() string {
	return fmt.Sprintf("rm: workflow %s stalled: %d/%d tasks done (cluster too small for some request?)",
		e.Workflow, e.Done, e.Total)
}

// Start submits the expansion's ready tasks without running the engine, so
// several runners can share one manager — concurrent workflows on one
// cluster. The run then proceeds as the engine runs; OnComplete reports its
// end. An empty expansion settles at once: OnComplete fires inside Start and
// the makespan is 0.
func (sr *StreamRunner) Start() {
	if sr.Runtime == nil {
		sr.Runtime = DefaultRuntime
	}
	sr.doneCount, sr.resident, sr.peakResident, sr.finishAt, sr.stats, sr.err = 0, 0, 0, 0, RunStats{}, nil
	sr.total = sr.Source.Total()
	if sr.total == 0 {
		sr.taskDone(0)
		return
	}
	sr.pull()
}

// Err returns the error that failed the run, or nil: the hook's refusal
// (see AttemptHook.Resubmit), or a *StallError once the engine has drained
// with the run unsettled.
func (sr *StreamRunner) Err() error {
	if sr.err == nil && sr.doneCount != sr.total && sr.Manager.Engine().Pending() == 0 {
		sr.err = &StallError{Workflow: sr.Source.Name(), Done: sr.doneCount, Total: sr.total}
	}
	return sr.err
}

// Reset clears every per-run field — source, wiring, recovery policy and
// accounting — so a pooled runner audits identically to a zero one. The
// Manager binding and pooled attempt records survive; the next Run starts
// from the same state a fresh runner would.
func (sr *StreamRunner) Reset() {
	sr.Source, sr.Runtime, sr.WorkflowID = nil, nil, ""
	sr.Retry, sr.RetryRNG, sr.FailPlan = nil, nil, nil
	sr.OnComplete, sr.Observe, sr.MaxResident, sr.Hook = nil, nil, 0, nil
	sr.total, sr.doneCount, sr.resident, sr.peakResident = 0, 0, 0, 0
	sr.finishAt, sr.stats, sr.err = 0, RunStats{}, nil
}

// pull admits ready tasks while the residency window allows and the run has
// not failed.
func (sr *StreamRunner) pull() {
	for sr.err == nil && (sr.MaxResident <= 0 || sr.resident < sr.MaxResident) {
		t, idx, ok := sr.Source.Next()
		if !ok {
			return
		}
		sr.resident++
		if sr.resident > sr.peakResident {
			sr.peakResident = sr.resident
		}
		sr.submit(t, idx)
	}
}

// submit queues the first attempt of t.
func (sr *StreamRunner) submit(t *dag.Task, idx int) {
	var a *attempt
	if n := len(sr.freeAttempts); n > 0 {
		a = sr.freeAttempts[n-1]
		sr.freeAttempts = sr.freeAttempts[:n-1]
	} else {
		a = new(attempt)
	}
	a.sr, a.task, a.idx, a.attempt = sr, t, idx, 1
	a.failN = 0
	if sr.FailPlan != nil {
		a.failN = sr.FailPlan(idx)
	}
	sr.start(a)
}

// start submits the attempt currently described by a. It fills a.sub field
// by field rather than assigning a composite literal, which would build a
// temporary Submission and copy it in; every field the literal would leave
// zero is reset, so a retry carries nothing over from its previous attempt.
func (sr *StreamRunner) start(a *attempt) {
	s, t := &a.sub, a.task
	s.WorkflowID, s.TaskID, s.Attempt, s.Name = sr.WorkflowID, t.ID, a.attempt, t.Name
	s.Cores, s.GPUs, s.Mem, s.InputBytes = t.Cores, t.GPUs, t.MemBytes, t.InputBytes
	s.Runtime, s.Validate, s.Done, s.Hooks = nil, nil, nil, a
	s.submittedAt, s.placed, s.prioKey, s.prioGen = 0, false, 0, 0
	if sr.Hook != nil {
		a.hook = sr.Hook(&a.sub, a.task, a.idx, a.attempt)
		a.sub.Hooks = a.hook
	}
	sr.Manager.Submit(&a.sub)
}

// retire hands the terminal task to the Observe hook, then back to the
// expander for recycling, and frees its residency slot.
func (sr *StreamRunner) retire(t *dag.Task, r Result) {
	if sr.Observe != nil {
		sr.Observe(t, r)
	}
	sr.resident--
	sr.Source.Retire(t)
}

// recycle returns a dead attempt record to the pool, keeping its resubmit
// closure, bound to the record the first time it is needed.
func (sr *StreamRunner) recycle(a *attempt) {
	*a = attempt{resubmitFn: a.resubmitFn}
	sr.freeAttempts = append(sr.freeAttempts, a)
}

// taskDone advances the terminal count by n and, when the whole expansion
// has settled, fires OnComplete and reports true. Total is re-read per
// terminal task because dynamic sources grow it as the run progresses; for
// static sources it is the same constant every time. A settled run has
// nothing left to pull, and the runner touches none of its state after
// OnComplete, which may therefore Reset the runner and start it afresh.
func (sr *StreamRunner) taskDone(n int) bool {
	sr.doneCount += n
	sr.total = sr.Source.Total()
	if sr.doneCount != sr.total {
		return false
	}
	sr.finishAt = sr.Manager.Engine().Now()
	if sr.OnComplete != nil {
		sr.OnComplete()
	}
	return true
}

// PeakResident returns the high-water mark of tasks emitted but not yet
// terminal — the number the memory-ceiling regression gates.
func (sr *StreamRunner) PeakResident() int { return sr.peakResident }

// Stats returns the run's failure/recovery accounting.
func (sr *StreamRunner) Stats() RunStats { return sr.stats }
