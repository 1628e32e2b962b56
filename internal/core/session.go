package core

import (
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/predict"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
	"hhcw/internal/statediff"
)

// RunSession is a handle that runs workflows on one environment's
// substrate. A session may keep its substrate (engine, cluster, resource
// manager, scheduler, provenance, metrics) and reset it in place between
// runs, as Session does, so an ensemble executes thousands of seeds with
// near-zero steady-state construction cost; or it may rebuild the substrate
// per run. The determinism contract is exact: a warm RunSeeded is
// bit-identical to the first run of a new session (core.Run) — same
// fingerprints, same goldens — which Audit and the sweep equivalence battery
// enforce.
type RunSession interface {
	Name() string
	// RunSeeded runs w on the session's substrate. rng drives the
	// substrate's randomness; the caller owns it and may reseed it once the
	// call returns, so the session must not keep it.
	RunSeeded(w *dag.Workflow, rng *randx.Source) (*Result, error)
	// Audit resets the session and deep-diffs it against a freshly
	// constructed one, returning one line per leaked field path (empty when
	// the reset is clean). Pools and scratch whose capacity legitimately
	// survives are exempt; any observational or decision-bearing state that
	// differs is a reset bug.
	Audit() []string
}

// Session is the warm-run session over a KubernetesEnv, and the one assembly
// of a Kubernetes run: every run, warm or cold, eager or expanded at runtime,
// executes Session.RunSeeded. One engine, cluster, manager and task driver —
// and, on CWS environments, one CWS with its provenance store — live for the
// session's lifetime; every RunSeeded after the first resets them in place —
// the engine truncates its heaps and keeps its slab tail, the cluster restores node capacity and rebuilds the segment index
// over the same arrays, the manager, driver and scheduler clear queues and
// pooled records without dropping capacity, provenance and metrics truncate
// reusing buffers. The run's RNG forks (injector, task plan, retry jitter,
// or the prediction path's retry jitter) are session-owned sources, each
// allocated the first time a run needs it and reseeded in place by later
// runs, in exactly a new session's fork order. The fault layer is
// session-owned too: one injector, reset onto each run's fork, and one
// task-failure plan and retry policy, refilled per run. The runtime
// predictor is constructed fresh each run.
type Session struct {
	env      KubernetesEnv // configuration copy; per-run knobs re-derive from it
	name     string
	predCtor func() predict.RuntimePredictor
	strat    cwsi.Strategy

	eng    *sim.Engine
	cl     *cluster.Cluster
	mgr    *rm.TaskManager
	cws    *cwsi.CWS            // nil on the plain-FIFO path
	runner *rm.StreamRunner     // the task driver, bound to the CWS on CWS runs
	x      dag.WorkflowExpander // the runner's source, rebound to each run's workflow
	// expand, on an expander session, builds each run's source from its
	// workflow in place of x.
	expand func(*dag.Workflow) (dag.Expander, error)
	forks  forkPool // the run's RNG forks, reseeded in place
	arm    faultArm // the run's fault layer, re-armed in place
	warm   bool
}

// NewSession implements Environment: it validates the configuration and
// constructs the substrate the session will reuse across runs.
func (e *KubernetesEnv) NewSession() (RunSession, error) {
	return e.newSession(nil)
}

// NewExpanderSession returns a session whose runs drive the source expand
// builds from each run's workflow — a lazily expanded composition, say —
// instead of the workflow itself. Everything else is the session's: the
// same retained substrate, fault layer and run body. The CWS and the
// prediction loop need the whole DAG up front, so a Strategy or Predict
// setting is rejected here, before any engine is built; such sources keep no
// provenance, and their results' Provenance is nil.
func (e *KubernetesEnv) NewExpanderSession(expand func(*dag.Workflow) (dag.Expander, error)) (RunSession, error) {
	if e.Strategy != nil {
		return nil, fmt.Errorf("core: streaming runs do not support CWS strategies (%q needs the whole DAG)", e.Strategy.Name())
	}
	if e.predictOn() {
		return nil, fmt.Errorf("core: streaming runs do not support the prediction loop (predict=%q needs the CWS)", e.Predict)
	}
	return e.newSession(expand)
}

func (e *KubernetesEnv) newSession(expand func(*dag.Workflow) (dag.Expander, error)) (*Session, error) {
	predCtor, err := predict.ByName(e.Predict)
	if err != nil {
		return nil, err
	}
	s := &Session{env: *e, name: e.Name(), predCtor: predCtor, strat: e.effectiveStrategy(), expand: expand}
	if s.eng, s.cl, err = e.substrate(); err != nil {
		return nil, err
	}
	s.mgr = rm.NewTaskManager(s.cl, nil)
	if s.strat != nil {
		// The predictor is per-run state (each run trains its own); Reset
		// installs it at the top of every RunSeeded.
		s.cws = cwsi.New(s.mgr, s.strat, nil)
	}
	s.runner = &rm.StreamRunner{Manager: s.mgr}
	if e.Faults.Enabled() {
		// Each run resets the injector onto its own fork (armFaults).
		s.arm.setInjector(fault.NewInjector(s.cl, nil, e.Faults))
	}
	return s, nil
}

// k8sMemPerNode is every uniform Kubernetes node's memory: a terabyte keeps
// memory out of the way of core packing.
const k8sMemPerNode = 1e12

// substrate validates the node configuration and builds the session's
// engine and cluster.
func (e *KubernetesEnv) substrate() (*sim.Engine, *cluster.Cluster, error) {
	if e.Nodes <= 0 || (!e.Heterogeneous && e.CoresPerNode <= 0) {
		return nil, nil, fmt.Errorf("core: kubernetes env needs nodes and cores")
	}
	eng := sim.NewEngine()
	if e.Heterogeneous {
		return eng, cluster.Heterogeneous(eng, e.Nodes), nil
	}
	return eng, cluster.New(eng, "k8s", cluster.Spec{
		Type:  cluster.NodeType{Name: "node", Cores: e.CoresPerNode, MemBytes: k8sMemPerNode},
		Count: e.Nodes,
	}), nil
}

// Name implements RunSession.
func (s *Session) Name() string { return s.name }

// reset returns the substrate to its just-constructed state. The CWS is
// reset separately (RunSeeded hands it the run's predictor; Audit hands it
// nil, matching a fresh construction).
func (s *Session) reset() {
	s.eng.Reset()
	s.cl.Reset()
	s.mgr.Reset()
	s.forks.reset()
	s.arm.reset()
	s.runner.Reset()
	s.x.Reset(nil)
}

// faultArm is one run's armed fault layer: the node-fault injector, the
// transient task-failure plan indexed by insertion order, and the recovery
// policy with its jitter source. The zero value is a fault-free run. The warm
// session keeps one across runs; reset keeps the injector, the plan's
// storage and the runner callbacks for the next armFaults.
type faultArm struct {
	inj      *fault.Injector
	plan     []int
	retry    *fault.RetryPolicy // nil, or policy
	policy   fault.RetryPolicy
	retryRNG *randx.Source

	// The runner's callbacks, bound once with the injector.
	failFn    func(int) int
	stopFn    func()
	runtimeFn func(*dag.Task, *cluster.Node) float64
}

// setInjector installs inj and binds the runner callbacks.
func (a *faultArm) setInjector(inj *fault.Injector) {
	a.inj = inj
	a.failFn, a.stopFn, a.runtimeFn = a.failures, inj.Stop, a.runtime
}

// setRetry arms fault.DefaultRetryPolicy, the recovery policy of every
// fault and prediction run.
func (a *faultArm) setRetry() {
	a.policy = fault.DefaultRetryPolicy()
	a.retry = &a.policy
}

// reset disarms the arm, keeping its injector and plan storage.
func (a *faultArm) reset() {
	if a.inj != nil {
		a.inj.Reset(nil)
	}
	a.plan = a.plan[:0]
	a.retry, a.policy, a.retryRNG = nil, fault.RetryPolicy{}, nil
}

// forkPool hands out a run's RNG forks. The warm session keeps one across
// runs and reseeds its sources in place, so the streams are those fresh
// forks would give.
type forkPool struct {
	// srcs holds this run's forks in fork order. reset truncates it; the
	// sources past len stay allocated in the backing array for the next run.
	srcs []*randx.Source
}

// fork derives the run's next fork from rng.
func (p *forkPool) fork(rng *randx.Source) *randx.Source {
	i := len(p.srcs)
	if i == cap(p.srcs) {
		p.srcs = append(p.srcs, nil)
	}
	p.srcs = p.srcs[:i+1]
	if p.srcs[i] == nil {
		p.srcs[i] = new(randx.Source)
	}
	return rng.ForkInto(p.srcs[i])
}

func (p *forkPool) reset() { p.srcs = p.srcs[:0] }

// armFaults arms the fault layer in arm for a run of n tasks on cl, drawing
// its forks from forks. Fork order is fixed (injector, task plan, retry
// jitter) — it is part of the determinism contract, warm or cold. An
// injector already in arm (the session's) is reset onto the run's fork
// instead of built.
func (e *KubernetesEnv) armFaults(arm *faultArm, cl *cluster.Cluster, rng *randx.Source, n int, forks *forkPool) error {
	if !e.Faults.Enabled() {
		return nil
	}
	if rng == nil {
		return fmt.Errorf("core: fault profile %q needs a seeded source", e.Faults.Name)
	}
	if arm.inj == nil {
		arm.setInjector(fault.NewInjector(cl, forks.fork(rng), e.Faults))
	} else {
		arm.inj.Reset(forks.fork(rng))
	}
	arm.plan = e.Faults.PlanTaskFailuresInto(arm.plan, n, forks.fork(rng))
	arm.setRetry()
	arm.retryRNG = forks.fork(rng)
	return nil
}

// failures returns the planned transient failures of the task at insertion
// index i. The plan covers the source's Total, which is fixed for every
// source a session runs.
func (a *faultArm) failures(i int) int { return a.plan[i] }

// runtime scales the nominal runtime by the injector's I/O-episode factor.
func (a *faultArm) runtime(t *dag.Task, n *cluster.Node) float64 {
	return rm.DefaultRuntime(t, n) * a.inj.RuntimeScale()
}

// setRecovery fills the result's failure/recovery accounting; skipped
// descendants count as terminal failures.
func (r *Result) setRecovery(st rm.RunStats) {
	r.FailedAttempts = st.Failures
	r.Retries = st.Retries
	r.TerminalFailures = st.TerminalFailures + st.Skipped
	r.BackoffSec = st.BackoffSec
}

// RunSeeded implements RunSession. The run's source is the session's
// WorkflowExpander rebound to w or, on an expander session, the source built
// from w. The body reads the source's Total once, arms the fault layer for it
// in the fixed fork order (injector, task plan, retry jitter), arms the CWS
// when there is one, and drives the source through the session's runner.
// With a CWS, w is registered there and every attempt runs through it
// (cwsi.CWS.Bind). FIFO, CWS and expander runs, warm and cold, all share it.
func (s *Session) RunSeeded(w *dag.Workflow, rng *randx.Source) (*Result, error) {
	if s.warm {
		s.reset()
	}
	s.warm = true
	var x dag.Expander = &s.x
	if s.expand != nil {
		var err error
		if x, err = s.expand(w); err != nil {
			return nil, err
		}
	} else if err := s.x.Reset(w); err != nil {
		return nil, err
	}
	res := &Result{Environment: s.name, TasksRun: x.Total()}
	arm := &s.arm
	if err := s.env.armFaults(arm, s.cl, rng, res.TasksRun, &s.forks); err != nil {
		return nil, err
	}
	if s.cws != nil {
		if err := s.armCWS(w, rng, arm); err != nil {
			return nil, err
		}
	}
	runner := s.runner
	runner.Source, runner.WorkflowID = x, x.Name()
	if arm.retry != nil {
		runner.Retry, runner.RetryRNG = arm.retry, arm.retryRNG
	}
	if s.cws != nil {
		// maxRetries 1 is the budget of policy-less runs (fault-free,
		// prediction off); an armed policy supersedes it.
		if err := s.cws.Bind(runner, runner.WorkflowID, 1, 0); err != nil {
			return nil, err
		}
	}
	if arm.inj != nil {
		if s.cws == nil {
			// CWS attempts run at rm.DefaultRuntime: the I/O-episode
			// slowdown reaches only the FIFO path.
			runner.Runtime = arm.runtimeFn
		}
		runner.FailPlan, runner.OnComplete = arm.failFn, arm.stopFn
		arm.inj.Start()
	}
	ms := runner.Run()
	if err := runner.Err(); err != nil {
		return nil, err
	}
	res.MakespanSec = float64(ms)
	res.UtilizationCore = s.cl.Utilization(ms)
	res.setRecovery(runner.Stats())
	if arm.inj != nil {
		st := arm.inj.Stats()
		res.NodeFailures = st.NodeFailures + st.Reclaims
	}
	if s.cws != nil {
		res.Provenance = s.cws.Provenance()
		if s.predCtor != nil {
			pe := s.cws.PredictionErrors()
			res.PredSamples = pe.N
			res.PredMAESec = pe.MAE()
			res.PredMREPct = 100 * pe.MRE()
		}
	}
	return res, nil
}

// armCWS readies the session's CWS for a run of w: the run's predictor and
// strategy, the prediction loop's consumers when it is on, and w's
// registration.
func (s *Session) armCWS(w *dag.Workflow, rng *randx.Source, arm *faultArm) error {
	e := &s.env
	var p predict.RuntimePredictor
	if s.predCtor != nil {
		p = s.predCtor()
	}
	cws := s.cws
	// Reset unconditionally (a no-op on the first, still-fresh run): this is
	// where the run's predictor and the configured strategy are installed,
	// exactly as cwsi.New received them in a new session.
	cws.Reset(s.strat, p)
	if s.predCtor != nil {
		// Close the loop: online training from provenance is wired at
		// construction; arm the consumers. Walltime-overrun kills need a retry
		// policy to route through, so prediction-on fault-free runs arm the
		// recovery policy too (fork order: the retry jitter source is the
		// run's only fork when no injector exists).
		minS := e.PredictMinSamples
		if minS <= 0 {
			minS = 3
		}
		cws.SetMinPredictionSamples(minS)
		cws.SetMemPredictor(predict.NewMem(0.2))
		cws.SetOverrunPolicy(1.5, 2)
		cws.EnablePredictedBackfill()
		if arm.retry == nil {
			arm.setRetry()
			if rng != nil {
				arm.retryRNG = s.forks.fork(rng)
			}
		}
	}
	return cws.RegisterWorkflow(w.Name, w)
}

// sessionAuditSkip exempts the fields a warm reset legitimately retains:
// capacity pools, scratch buffers, slab tails, and memoized renderings, none
// of which carry observational or decision-bearing state into the next run.
var sessionAuditSkip = []string{
	"core.Session.warm",           // the one intentional divergence
	"sim.Engine.slab",             // slab tail, drawn when free runs out
	"sim.Engine.free",             // recycled event records, a capacity pool
	"cluster.Node.name",           // lazily memoized rendering of stable identity
	"rm.TaskManager.orderScratch", // dispatch scratch, overwritten per pass
	"rm.TaskManager.candScratch",
	"rm.TaskManager.resScratch",
	"rm.TaskManager.freeRunning", // pooled records, zeroed on recycle
	"rm.StreamRunner.freeAttempts",
	"cwsi.CWS.freeRuns",
	"cwsi.CWS.freeStates",       // pooled states, zeroed but for their hooks and rank capacity
	"cwsi.rmAdapter.keys",       // priority-sort scratch, refilled per round
	"rm.TaskManager.victims",    // node-down scratch, refilled per failure
	"rm.TaskManager.downErrs",   // memoized failure causes of stable nodes
	"fault.Injector.nodeTimers", // handlers bound to stable node identity
	"cwsi.CWS.retryPolicy",      // memoized retry-policy label and its key
	"cwsi.CWS.retryLabel",
}

// Audit implements RunSession: it resets the session and deep-diffs it
// against a freshly constructed one, field by field through every subsystem.
// A non-empty result names each leaked path — for example, a fault plan
// surviving Reset reports as rm.StreamRunner.FailPlan.
func (s *Session) Audit() []string {
	s.reset()
	if s.cws != nil {
		s.cws.Reset(s.strat, nil)
	}
	return s.auditDiff()
}

// auditDiff diffs the session's current state against a fresh construction
// without resetting first — the seam negative tests use to prove that a
// deliberately leaked field is caught and named.
func (s *Session) auditDiff() []string {
	fresh, err := s.env.newSession(s.expand)
	if err != nil {
		return []string{"audit: rebuilding fresh session: " + err.Error()}
	}
	return statediff.Diff(s, fresh, statediff.Config{Skip: sessionAuditSkip})
}
