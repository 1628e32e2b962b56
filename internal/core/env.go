package core

import (
	"fmt"
	"math"

	"hhcw/internal/cloud"
	"hhcw/internal/cluster"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/pilot"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// Result is one workflow execution on an environment.
type Result struct {
	Environment string
	MakespanSec float64
	// UtilizationCore is time-averaged core utilization during the run.
	UtilizationCore float64
	TasksRun        int

	// Failure/recovery accounting — all zero on fault-free runs.
	FailedAttempts   int     // attempts that ended in failure (recovered or not)
	Retries          int     // policy-scheduled resubmissions
	TerminalFailures int     // tasks abandoned after exhausting the policy (incl. skipped descendants)
	BackoffSec       float64 // total recovery backoff injected
	// NodeFailures counts the node crashes and spot reclaims the fault
	// injector set off. It is not part of the fingerprint.
	NodeFailures int

	// Prediction-loop accounting — all zero unless the environment ran with
	// an online predictor (KubernetesEnv.Predict).
	PredSamples int     // successful attempts placed with a warm prediction
	PredMAESec  float64 // mean absolute runtime prediction error, seconds
	PredMREPct  float64 // mean relative runtime prediction error, percent

	// Provenance is the CWS store when the environment is CWSI-enabled.
	Provenance any
}

// Fingerprint encodes the result's deterministic fields — environment name,
// the exact IEEE-754 bits of makespan, utilization and backoff, and the
// task/failure counts — as a string. Two runs are bit-identical iff their
// fingerprints are equal, which is the equality the sweep engine's
// determinism contract is stated in; Provenance is deliberately excluded
// (substrate-internal pointers).
func (r *Result) Fingerprint() string {
	fp := fmt.Sprintf("%s/%016x/%016x/%d/%d/%d/%d/%016x",
		r.Environment,
		math.Float64bits(r.MakespanSec),
		math.Float64bits(r.UtilizationCore),
		r.TasksRun,
		r.FailedAttempts,
		r.Retries,
		r.TerminalFailures,
		math.Float64bits(r.BackoffSec))
	// The prediction suffix appears only once predictions engaged, so every
	// fingerprint from before the prediction loop existed — the frozen
	// goldens included — is unchanged, and a cold predictor-on run is
	// bit-comparable to a predictor-off run up to the environment name.
	if r.PredSamples > 0 {
		fp += fmt.Sprintf("/p%d/%016x/%016x",
			r.PredSamples,
			math.Float64bits(r.PredMAESec),
			math.Float64bits(r.PredMREPct))
	}
	return fp
}

// Environment is a simulated substrate that executes compiled workflows: a
// factory of run sessions. NewSession validates the configuration and
// returns a session that runs workflows on it, one RunSeeded per run.
type Environment interface {
	NewSession() (RunSession, error)
}

// Run executes w once on a new session of env. rng drives the substrate's
// randomness (fault injection, where env arms it); the caller owns it, as
// with RunSession.RunSeeded.
func Run(env Environment, w *dag.Workflow, rng *randx.Source) (*Result, error) {
	s, err := env.NewSession()
	if err != nil {
		return nil, err
	}
	return s.RunSeeded(w, rng)
}

// KubernetesEnv is a Kubernetes-like cluster of identical nodes, optionally
// workflow-aware via a CWS strategy (§3), and optionally chaos-tested via a
// fault profile.
type KubernetesEnv struct {
	Nodes        int
	CoresPerNode int
	// Strategy enables the Common Workflow Scheduler; nil = plain FIFO.
	Strategy cwsi.Strategy
	// Predict closes the full prediction loop (§3.4) by name: "mean",
	// "regression" or "lotaru" wraps Strategy (Baseline if nil) in
	// cwsi.Predictive and arms online training from provenance, memory
	// right-sizing, predicted-duration backfill and walltime-overrun
	// enforcement. "" or "off" leaves everything as configured above.
	Predict string
	// PredictMinSamples is the per-task-name warmth gate for the prediction
	// loop; 0 means 3. Until a name has that many observations every
	// decision falls back to the unpredicted path.
	PredictMinSamples int
	// Heterogeneous swaps the uniform node pool for cluster.Heterogeneous:
	// Nodes nodes each of three machine types (8c/1.0×, 16c/1.4×, 32c/2.0×).
	// CoresPerNode is ignored.
	Heterogeneous bool
	// Faults, when an enabled profile, arms deterministic fault injection:
	// node crashes/reclaims/I/O episodes on the substrate, transient task
	// failures in the workload, all recovered under
	// fault.DefaultRetryPolicy.
	Faults fault.Profile
}

// Name is the name of the environment's results. Fault-injected,
// heterogeneous and prediction-loop variants all carry their configuration
// in the name so their results never alias each other's.
func (e *KubernetesEnv) Name() string {
	name := "kubernetes"
	if strat := e.effectiveStrategy(); strat != nil {
		name = "kubernetes+cws/" + strat.Name()
	}
	if e.predictOn() {
		name += "+predict/" + e.Predict
	}
	if e.Heterogeneous {
		name += "+hetero"
	}
	if e.Faults.Enabled() {
		name += "+faults/" + e.Faults.Name
	}
	return name
}

func (e *KubernetesEnv) predictOn() bool { return e.Predict != "" && e.Predict != "off" }

// effectiveStrategy is the strategy the run actually installs: the
// configured one, wrapped in cwsi.Predictive when the prediction loop is on
// (Baseline supplies FIFO-like inner semantics if none was configured).
func (e *KubernetesEnv) effectiveStrategy() cwsi.Strategy {
	if !e.predictOn() {
		return e.Strategy
	}
	inner := e.Strategy
	if inner == nil {
		inner = cwsi.Baseline{}
	}
	return cwsi.Predictive{Inner: inner}
}

// HPCEnv executes through a pilot job on a Frontier-like allocation (§4):
// tasks become node-granular pilot tasks.
type HPCEnv struct {
	Nodes        int
	CoresPerNode int
	// Resource shaping (zero values = no agent overhead / unlimited rates).
	BootstrapSec          float64
	SchedRate, LaunchRate float64
}

// hpcWalltimeSec is the pilot's walltime: a day, longer than any workflow
// the environment runs.
const hpcWalltimeSec = 24 * 3600

// Name is the name of the environment's results.
func (e *HPCEnv) Name() string { return "hpc-pilot" }

// NewSession implements Environment. The session builds its engine,
// cluster, batch manager and pilot per run.
func (e *HPCEnv) NewSession() (RunSession, error) {
	if e.Nodes <= 0 {
		return nil, fmt.Errorf("core: hpc env needs nodes")
	}
	c := *e
	return rebuildSession{name: c.Name(), run: c.run}, nil
}

// run drives x through a StreamRunner on the pilot.
func (e *HPCEnv) run(x dag.Expander) (*Result, error) {
	cores := e.CoresPerNode
	if cores <= 0 {
		cores = 56
	}
	eng := sim.NewEngine()
	cl := cluster.New(eng, "hpc", cluster.Spec{
		Type:  cluster.NodeType{Name: "hpc", Cores: cores, GPUs: 8, MemBytes: 512e9},
		Count: e.Nodes,
	})
	bm := rm.NewBatchManager(cl, nil)
	p, err := pilot.Submit(bm, cl, pilot.Config{
		Nodes:        e.Nodes,
		Walltime:     hpcWalltimeSec,
		Account:      "core",
		BootstrapSec: e.BootstrapSec,
		SchedRate:    e.SchedRate,
		LaunchRate:   e.LaunchRate,
	})
	if err != nil {
		return nil, err
	}
	// A failed task fails the run, once the rest has drained.
	var failErr error
	sr := &rm.StreamRunner{
		Manager:    p,
		Source:     x,
		WorkflowID: x.Name(),
		Runtime:    func(t *dag.Task, _ *cluster.Node) float64 { return t.NominalDur },
		Observe: func(_ *dag.Task, r rm.Result) {
			if r.Failed && failErr == nil {
				failErr = r.Err
			}
		},
	}
	sr.Run()
	p.Release()
	if failErr != nil {
		return nil, fmt.Errorf("core: hpc run failed: %w", failErr)
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	ms := p.Overhead() + p.TTX()
	res := &Result{
		Environment: e.Name(),
		MakespanSec: float64(ms),
		TasksRun:    x.Total(),
	}
	if ms > 0 {
		res.UtilizationCore = p.BusyNodesSeries().Integral(p.StartedAt(), p.StartedAt()+ms) /
			(float64(e.Nodes) * float64(ms))
	}
	return res, nil
}

// CloudEnv executes on an elastic instance fleet (§5): each ready task runs
// on an instance; the fleet scales to MaxInstances.
type CloudEnv struct {
	MaxInstances int
	Instance     cloud.InstanceType
}

// Name is the name of the environment's results.
func (e *CloudEnv) Name() string { return "cloud" }

// NewSession implements Environment. The session builds its engine and
// fleet per run.
func (e *CloudEnv) NewSession() (RunSession, error) {
	if e.MaxInstances <= 0 {
		return nil, fmt.Errorf("core: cloud env needs instances")
	}
	c := *e
	return rebuildSession{name: c.Name(), run: c.run}, nil
}

// run drives x through a StreamRunner on the fleet.
func (e *CloudEnv) run(x dag.Expander) (*Result, error) {
	itype := e.Instance
	if itype.Name == "" {
		itype = cloud.T3Medium
	}
	eng := sim.NewEngine()
	f := &fleet{env: cloud.NewEnv(eng), itype: itype, max: e.MaxInstances}
	sr := &rm.StreamRunner{
		Manager:    f,
		Source:     x,
		WorkflowID: x.Name(),
		Runtime:    func(t *dag.Task, _ *cluster.Node) float64 { return t.NominalDur / instSpeed(itype) },
	}
	sr.Run()
	if err := sr.Err(); err != nil {
		return nil, err
	}
	res := &Result{
		Environment: e.Name(),
		MakespanSec: float64(eng.Now()),
		TasksRun:    x.Total(),
	}
	allocated := 0.0
	for _, inst := range f.env.Instances() {
		f.env.Terminate(inst)
		allocated += inst.UptimeSec(eng.Now())
	}
	if allocated > 0 {
		res.UtilizationCore = f.busySec / allocated
	}
	return res, nil
}

// rebuildSession is the session of an environment that builds its whole
// substrate per run (HPCEnv, CloudEnv): run drives the run's workflow on a
// fresh substrate and reads no randomness. Nothing survives a run, so Audit
// has nothing to report.
type rebuildSession struct {
	name string
	run  func(dag.Expander) (*Result, error)
}

// Name implements RunSession.
func (s rebuildSession) Name() string { return s.name }

// RunSeeded implements RunSession.
func (s rebuildSession) RunSeeded(w *dag.Workflow, _ *randx.Source) (*Result, error) {
	x, err := dag.NewWorkflowExpander(w)
	if err != nil {
		return nil, err
	}
	return s.run(x)
}

// Audit implements RunSession.
func (rebuildSession) Audit() []string { return nil }

// fleet is CloudEnv's elastic instance pool as an rm.Executor. An instance
// runs one task at a time, whatever its shape, and parks when nothing
// waits. A dispatch wakes parked instances, then launches one instance per
// task still waiting, up to max, not counting instances still booting. A
// completion dispatches only after the runner has submitted what it
// readied, and then hands the freed instance the next task. There are no
// cluster nodes: RuntimeOn and ValidateOn see nil.
type fleet struct {
	env               *cloud.Env
	itype             cloud.InstanceType
	max               int
	ready             []waiting
	idle              []*instance // parked, in parking order
	launched          int
	busySec           float64
	finishing, kicked bool // inside a completion; a dispatch is due now
}

// waiting is a submission not started yet, and when it came.
type waiting struct {
	s  *rm.Submission
	at sim.Time
}

// instance is one fleet member and the attempt it runs.
type instance struct {
	cur   waiting
	start sim.Time
	dur   float64
}

// Engine implements rm.Executor.
func (f *fleet) Engine() *sim.Engine { return f.env.Eng }

// Submit implements rm.Executor.
func (f *fleet) Submit(s *rm.Submission) {
	f.ready = append(f.ready, waiting{s, f.env.Eng.Now()})
	if !f.finishing && !f.kicked {
		f.kicked = true
		f.env.Eng.After(0, func() {
			f.kicked = false
			f.dispatch()
		})
	}
}

func (f *fleet) dispatch() {
	for len(f.ready) > 0 && len(f.idle) > 0 {
		w := f.idle[0]
		f.idle = f.idle[1:]
		f.next(w)
	}
	for demand := len(f.ready); demand > 0 && f.launched < f.max; demand-- {
		w := &instance{}
		f.env.Launch(f.itype, func(*cloud.Instance) { f.next(w) })
		f.launched++
	}
}

// next starts the oldest waiting task on w, or parks w.
func (f *fleet) next(w *instance) {
	if len(f.ready) == 0 {
		f.idle = append(f.idle, w)
		return
	}
	w.cur, f.ready = f.ready[0], f.ready[1:]
	w.start, w.dur = f.env.Eng.Now(), w.cur.s.RuntimeOn(nil)
	f.env.Eng.After(sim.Time(w.dur), func() { f.finish(w, w.cur.s.ValidateOn(nil)) })
}

// finish reports w's attempt and moves w on.
func (f *fleet) finish(w *instance, err error) {
	q := w.cur
	w.cur = waiting{}
	f.busySec += w.dur
	f.finishing = true
	q.s.Finish(rm.Result{Submission: q.s, SubmittedAt: q.at, StartedAt: w.start,
		FinishedAt: f.env.Eng.Now(), Failed: err != nil, Err: err})
	f.finishing = false
	f.dispatch()
	f.next(w)
}

func instSpeed(t cloud.InstanceType) float64 {
	if t.SpeedFactor <= 0 {
		return 1
	}
	return t.SpeedFactor
}
