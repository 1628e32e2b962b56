package service

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"hhcw/internal/cluster"
	"hhcw/internal/compose"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/metrics"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
	"hhcw/internal/statediff"
)

// Tenant is one workload stream sharing the service's cluster.
type Tenant struct {
	// ID names the tenant; workflows are registered as "ID/wf-N", so IDs
	// must not contain '/'.
	ID string
	// Weight is the fair-share weight (<= 0 means 1): the fair-share
	// strategy equalizes usedCoreSec/Weight across tenants.
	Weight float64
	// Arrivals drives the tenant's workflow arrival process.
	Arrivals Poisson
	// Workload generates the compiled workflow of one admission. It must be
	// a pure function of rng; it is invoked only for ADMITTED arrivals, so a
	// rejected or deferred arrival costs O(1) state, never a compile. Within
	// a Sweep, Compile runs once per (seed, tenant, admission): every run of
	// the seed that admits the same workflow reads the first one's. So
	// Workload must not keep rng, and no caller may mutate the workflow it
	// returns.
	Workload func(rng *randx.Source) compose.Compiler
	// MaxInFlight bounds concurrently admitted workflows (admission budget).
	// 0 means the default of 8; negative disables admission (reject all).
	MaxInFlight int
	// MaxDeferred bounds the backpressure queue of arrivals waiting for an
	// in-flight slot. 0 means the default of 16; negative disables deferral
	// (overflow arrivals are rejected outright).
	MaxDeferred int
}

// Config describes one service session.
type Config struct {
	Nodes        int
	CoresPerNode int

	Tenants []Tenant

	// FairShare selects the deficit-weighted fair-share strategy; false runs
	// the plain FIFO baseline (the §6 starvation pathology).
	FairShare bool

	// HorizonSec stops every arrival process at this virtual time; the
	// service then drains admitted work and the run ends.
	HorizonSec float64

	// Faults overlays a deterministic failure profile, recovered under
	// fault.DefaultRetryPolicy.
	Faults fault.Profile

	// inspect, when set (tests only), sees the drained serviceRun before it
	// is reduced to a Result — the hook white-box invariant checks attach to.
	inspect func(sv *serviceRun)
}

// TenantResult is one tenant's accounting and SLO view of a run.
type TenantResult struct {
	Tenant string
	Weight float64

	Arrivals  int // arrival events in [0, HorizonSec]
	Admitted  int // workflows admitted (incl. via deferral)
	Deferred  int // arrivals that waited in the backpressure queue
	Rejected  int // arrivals dropped by admission control
	Completed int // workflows that ran to completion
	WfFailed  int // workflows that terminally failed

	TasksStarted  int // task attempts that reached a node
	PendingAborts int // always 0: no attempt ends before it reaches a node

	UsedCoreSec float64 // Σ cores × runtime over successful attempts

	MeanWaitSec     float64 // mean task queue wait
	P50WaitSec      float64
	P99WaitSec      float64 // the per-tenant SLO headline
	MeanDeferSec    float64 // mean admission deferral wait
	MeanMakespanSec float64 // mean workflow makespan

	RejectionRate float64 // Rejected / Arrivals (0 when no arrivals)

	// Solo-baseline comparison, filled by Sweep: the same tenant stream
	// alone on the same cluster under FIFO.
	SoloP99WaitSec      float64
	SoloMeanMakespanSec float64
	// WaitInflationP99 is P99WaitSec / SoloP99WaitSec (0 when the solo p99
	// is 0 — an uncontended stream with no queueing to inflate).
	WaitInflationP99  float64
	MakespanInflation float64
}

// Result is one service run.
type Result struct {
	Strategy     string
	Seed         int64
	HorizonSec   float64
	DrainedAtSec float64 // virtual time when the last admitted task finished
	Utilization  float64 // Σ tenant usedCoreSec / (total cores × DrainedAtSec)
	Tenants      []TenantResult
}

// tenantInputs is one tenant's workload stream and the admissions drawn
// from it so far, by admission sequence. A seed's runs share one per
// tenant: tenant i draws the same workload stream in each run that arms
// it, so its k-th admission is the same workflow in all of them. The first
// run to admit it generates it, and the later runs read it.
type tenantInputs struct {
	rng *randx.Source
	wfs []admission
}

// admission is one generated workflow and what a run reads with it.
type admission struct {
	id string // "tenant/wf-%05d"
	w  *dag.Workflow
	// failPlan maps a task index to its injected failures; nil unless the
	// profile injects task failures. Its plan is drawn from the tenant's
	// stream right after the workflow.
	failPlan func(i int) int
}

// tenantState is the live accounting of one tenant during a run.
type tenantState struct {
	spec   Tenant
	slot   int // index in serviceRun.tenants, the CWS tenant slot
	weight float64
	arrRNG *randx.Source
	in     *tenantInputs
	// onArrival is the tenant's arrival handler, bound once per run, so
	// arming the next arrival allocates nothing.
	onArrival func()

	maxInFlight int
	maxDeferred int

	arrivals  int
	admitted  int
	rejected  int
	deferrals int
	completed int
	wfFailed  int

	inFlight  int
	deferredQ []sim.Time // arrival times of deferred admissions, FIFO

	seq          int
	usedCoreSec  float64 // total, for accounting (never decays)
	fairUsage    float64 // decayed, for the fair-share deficit
	tasksStarted int
	waits        []float64
	deferWaits   []float64
	makespans    []float64
}

// serviceRun is one in-flight execution of a Config.
type serviceRun struct {
	cfg     Config
	sub     *Substrate
	eng     *sim.Engine
	cws     *cwsi.CWS
	inj     *fault.Injector
	tenants []*tenantState

	only          int // -1 = all tenants; otherwise the sole armed tenant
	activeChains  int
	inFlightTotal int
	admitted      []*driver          // every admission's driver, settled or not
	retry         *fault.RetryPolicy // the recovery policy of fault runs, nil otherwise
	retryRNG      *randx.Source      // backoff jitter, shared by every workflow's runner
	lastDecay     sim.Time           // last uniform decay instant (all tenants share it)
	err           error
}

// fairShareDecaySec is the time constant of the exponential decay applied
// to per-tenant fair-share usage. Without decay the deficit has an infinite
// window and stale imbalances — one tenant's big workflow an hour ago —
// distort priorities long after the episode; the decay makes the deficit
// track *recent* consumption, which is what fair share is supposed to
// equalize.
const fairShareDecaySec = 1800

// decayUsage applies the uniform exponential decay to every tenant's
// fair-share usage up to now. All tenants decay at the same instants by the
// same factor, so pairwise priority order is a pure function of the
// accounting history — not of which tenant happened to update last.
func (sv *serviceRun) decayUsage(now sim.Time) {
	dt := float64(now - sv.lastDecay)
	if dt <= 0 {
		return
	}
	f := math.Exp(-dt / fairShareDecaySec)
	for _, ts := range sv.tenants {
		ts.fairUsage *= f
	}
	sv.lastDecay = now
}

// Substrate is a warm service substrate: one engine + cluster + task manager
// + CWS instance, reusable across any number of runs that share the same
// cluster shape (Nodes, CoresPerNode). Between runs the
// substrate is reset in place — event queues truncated, node capacities
// restored, scheduler and provenance state cleared — instead of rebuilt, so
// an ensemble's steady-state construction cost is near zero. The determinism
// contract is the same as core.Session's: a warm run is bit-identical to a
// cold one, so reuse affects wall-clock and allocation only, never Results.
// A Substrate is single-goroutine: share nothing, one per worker.
type Substrate struct {
	nodes, cores int

	eng  *sim.Engine
	cl   *cluster.Cluster
	mgr  *rm.TaskManager
	cws  *cwsi.CWS
	warm bool
	// drivers pools settled workflow drivers, so a warm service admits
	// workflows without reallocating runners, attempt records or readiness
	// tables. made counts the drivers built, each numbered by it.
	drivers []*driver
	made    int
}

// driver is one admitted workflow's task driver: a StreamRunner over an
// expander of the workflow, bound to the CWS.
type driver struct {
	sr rm.StreamRunner
	x  dag.WorkflowExpander
	id int
}

// svcMemPerNode is every service node's memory: a terabyte keeps memory out
// of the way of core packing.
const svcMemPerNode = 1e12

// NewSubstrate builds a cold substrate for the given cluster shape. Returns
// nil for a non-positive shape — runs on a nil Substrate fall back to the
// cold path, where config validation reports the error.
func NewSubstrate(nodes, coresPerNode int) *Substrate {
	if nodes <= 0 || coresPerNode <= 0 {
		return nil
	}
	eng := sim.NewEngine()
	cl := cluster.New(eng, "svc", cluster.Spec{
		Type:  cluster.NodeType{Name: "svc-node", Cores: coresPerNode, GPUs: 2, MemBytes: svcMemPerNode},
		Count: nodes,
	})
	mgr := rm.NewTaskManager(cl, nil)
	// The per-run strategy is installed by cws.Reset at the top of each run;
	// Baseline here is just the construction placeholder.
	cws := cwsi.New(mgr, cwsi.Baseline{}, nil)
	return &Substrate{nodes: nodes, cores: coresPerNode, eng: eng, cl: cl, mgr: mgr, cws: cws}
}

// matches reports whether the substrate's cluster shape serves cfg.
func (sub *Substrate) matches(cfg *Config) bool {
	if sub == nil {
		return false
	}
	return sub.nodes == cfg.Nodes && sub.cores == cfg.CoresPerNode
}

// reset truncates the engine/cluster/manager in place. The CWS is reset
// separately (cws.Reset) because the per-run strategy is installed there.
// The driver pool is put back in the order the drivers were built: a run
// pops drivers as it admits and returns them as workflows settle, so
// without it each run would hand its workflows to other drivers than the
// last, and each driver's attempt pool would keep growing for several runs
// until it had served the largest workflow of all.
func (sub *Substrate) reset() {
	sub.eng.Reset()
	sub.cl.Reset()
	sub.mgr.Reset()
	slices.SortFunc(sub.drivers, func(a, b *driver) int { return a.id - b.id })
}

// substrateAuditSkip lists the fields that legitimately survive a reset:
// capacity pools and memoization caches whose contents are never observable
// in a run's results (see the statediff package doc for the semantics).
var substrateAuditSkip = []string{
	"service.Substrate.warm",
	"sim.Engine.slab",
	"sim.Engine.free",
	"cluster.Node.name",
	"rm.TaskManager.orderScratch",
	"rm.TaskManager.candScratch",
	"rm.TaskManager.resScratch",
	"rm.TaskManager.freeRunning",
	"rm.TaskManager.victims",
	"rm.TaskManager.downErrs",
	"cwsi.CWS.freeRuns",
	"cwsi.CWS.freeStates",
	"cwsi.rmAdapter.keys",
	"cwsi.CWS.retryPolicy",
	"cwsi.CWS.retryLabel",
	"service.Substrate.drivers",
	"service.Substrate.made",
}

// Audit resets the substrate and deep-diffs it against a freshly constructed
// one, returning one "path: detail" line per leaked field (nil when clean) —
// the service-mode arm of the warm-run dirty-state auditor.
func (sub *Substrate) Audit() []string {
	sub.reset()
	sub.cws.Reset(cwsi.Baseline{}, nil)
	fresh := NewSubstrate(sub.nodes, sub.cores)
	return statediff.Diff(sub, fresh, statediff.Config{Skip: substrateAuditSkip})
}

// ErrArrivalRate reports a tenant whose Poisson arrival rate is not
// positive and finite.
var ErrArrivalRate = errors.New("arrival rate must be positive and finite")

// Run executes the service session and returns per-tenant accounting. It is
// a pure function of (cfg, seed): bit-identical Results for equal inputs.
func Run(cfg Config, seed int64) (*Result, error) {
	return run(nil, cfg, seed, -1, nil)
}

// runSolo executes the session with only tenant index `only` armed, on the
// identical per-tenant random streams a full Run would use — the solo
// baseline that makespan-inflation and wait-inflation SLOs compare against.
// The solo run always schedules under FIFO: it measures the tenant's
// uncontended behavior, not the strategy's.
func runSolo(sub *Substrate, cfg Config, seed int64, only int, in []tenantInputs) (*Result, error) {
	if only < 0 || only >= len(cfg.Tenants) {
		return nil, fmt.Errorf("service: solo run tenant index %d out of range", only)
	}
	cfg.FairShare = false
	return run(sub, cfg, seed, only, in)
}

// run executes one session. in holds each tenant's inputs, shared with the
// seed's other runs; nil gives the run a fresh set.
func run(sub *Substrate, cfg Config, seed int64, only int, in []tenantInputs) (*Result, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("service: config needs at least one tenant")
	}
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		return nil, fmt.Errorf("service: config needs nodes and cores per node")
	}
	if cfg.HorizonSec <= 0 {
		return nil, fmt.Errorf("service: config needs a positive horizon")
	}

	// Resolve the substrate: the caller's warm one when its shape serves the
	// config, else a one-shot cold build (also the path of the package-level
	// Run functions).
	if !sub.matches(&cfg) {
		sub = NewSubstrate(cfg.Nodes, cfg.CoresPerNode)
	} else if sub.warm {
		sub.reset()
	}
	sub.warm = true

	sv := &serviceRun{
		cfg:  cfg,
		sub:  sub,
		eng:  sub.eng,
		only: only,
	}

	// Fixed fork order — part of the determinism contract, and shared with
	// solo runs so tenant i sees the identical arrival/workload streams
	// whether or not anyone else is on the cluster: one arrival fork and one
	// workload fork per configured tenant (armed or not), then the fault
	// forks. The seed's first run keeps each workload fork in the shared
	// inputs; a later run only steps past it.
	if in == nil {
		in = make([]tenantInputs, len(cfg.Tenants))
	}
	rng := randx.New(seed)
	for i := range cfg.Tenants {
		t := cfg.Tenants[i]
		if t.ID == "" || strings.ContainsRune(t.ID, '/') {
			return nil, fmt.Errorf("service: tenant %d: ID %q must be non-empty without '/'", i, t.ID)
		}
		if r := t.Arrivals.RatePerHour; !(r > 0) || math.IsInf(r, 1) {
			return nil, fmt.Errorf("service: tenant %q: %w, got %v", t.ID, ErrArrivalRate, r)
		}
		if t.Workload == nil {
			return nil, fmt.Errorf("service: tenant %q needs a Workload", t.ID)
		}
		if slices.ContainsFunc(cfg.Tenants[:i], func(o Tenant) bool { return o.ID == t.ID }) {
			return nil, fmt.Errorf("service: duplicate tenant ID %q", t.ID)
		}
		ts := &tenantState{
			spec:        t,
			slot:        i,
			weight:      t.Weight,
			arrRNG:      rng.Fork(),
			in:          &in[i],
			maxInFlight: t.MaxInFlight,
			maxDeferred: t.MaxDeferred,
		}
		if ts.in.rng == nil {
			ts.in.rng = rng.Fork()
		} else {
			rng.Int63() // the draw Fork makes
		}
		if ts.weight <= 0 {
			ts.weight = 1
		}
		if ts.maxInFlight == 0 {
			ts.maxInFlight = 8
		}
		if ts.maxDeferred == 0 {
			ts.maxDeferred = 16
		}
		ts.onArrival = func() {
			if sv.err != nil {
				sv.chainDone()
				return
			}
			sv.arrive(ts)
			sv.armArrivals(ts)
		}
		sv.tenants = append(sv.tenants, ts)
	}

	var strat cwsi.Strategy = cwsi.Baseline{}
	if cfg.FairShare {
		strat = &FairShare{sv: sv}
	}
	// Reset installs the per-run strategy; on a fresh substrate it is the
	// identity apart from that, so warm and cold runs see the same CWS.
	sub.cws.Reset(strat, nil)
	sv.cws = sub.cws
	sv.cws.SetTaskObserver(sv.observe)

	if cfg.Faults.Enabled() {
		retry := fault.DefaultRetryPolicy()
		sv.inj = fault.NewInjector(sub.cl, rng.Fork(), cfg.Faults)
		sv.retry, sv.retryRNG = &retry, rng.Fork()
		sv.inj.Start()
	}

	for i, ts := range sv.tenants {
		if only >= 0 && i != only {
			continue
		}
		sv.activeChains++
		sv.armArrivals(ts)
	}
	sub.eng.Run()
	if sv.err != nil {
		return nil, sv.err
	}
	if sv.inFlightTotal > 0 {
		// The engine drained with admitted work unsettled: some task can
		// never be placed (a fault injector would still hold the engine
		// open, since it stops only once nothing is in flight). Each
		// unsettled runner reports its stall; name the first.
		var stall error
		for _, d := range sv.admitted {
			if err := d.sr.Err(); errors.As(err, new(*rm.StallError)) {
				stall = err
				break
			}
		}
		return nil, fmt.Errorf("service: engine drained with %d admitted workflows unsettled; a task fits no node: %w", sv.inFlightTotal, stall)
	}
	if cfg.inspect != nil {
		cfg.inspect(sv)
	}
	return sv.result(seed), nil
}

// armArrivals schedules the tenant's next arrival, ending the chain past the
// horizon.
func (sv *serviceRun) armArrivals(ts *tenantState) {
	at := sv.eng.Now() + ts.spec.Arrivals.Next(ts.arrRNG)
	if float64(at) > sv.cfg.HorizonSec {
		sv.chainDone()
		return
	}
	sv.eng.At(at, ts.onArrival)
}

// arrive applies admission control to one arrival: admit within the
// in-flight budget, defer into the bounded backpressure queue, or reject.
// Rejected and deferred arrivals cost O(1) state — the workflow is neither
// generated nor compiled until an in-flight slot is granted, so service
// state stays O(in-flight + deferred), never O(arrivals). A tenant with a
// negative budget has no slot to wait for, so it defers nothing.
func (sv *serviceRun) arrive(ts *tenantState) {
	ts.arrivals++
	switch {
	case ts.inFlight < ts.maxInFlight:
		sv.admit(ts, sv.eng.Now())
	case ts.maxInFlight > 0 && len(ts.deferredQ) < ts.maxDeferred:
		ts.deferrals++
		ts.deferredQ = append(ts.deferredQ, sv.eng.Now())
	default:
		ts.rejected++
	}
}

// admit compiles and starts one workflow for an arrival that entered at
// arrivedAt (possibly earlier than now, for deferred admissions).
func (sv *serviceRun) admit(ts *tenantState, arrivedAt sim.Time) {
	now := sv.eng.Now()
	ts.admitted++
	ts.inFlight++
	sv.inFlightTotal++
	if now > arrivedAt {
		ts.deferWaits = append(ts.deferWaits, float64(now-arrivedAt))
	}
	ts.seq++
	a, err := sv.admission(ts)
	if err != nil {
		sv.fail(fmt.Errorf("service: tenant %s workload compile: %w", ts.spec.ID, err))
		return
	}
	wfID, w := a.id, a.w
	if err := sv.cws.RegisterWorkflow(wfID, w); err != nil {
		sv.fail(fmt.Errorf("service: %w", err))
		return
	}
	// One runner per workflow, on the shared recovery policy and jitter
	// source.
	var d *driver
	if n := len(sv.sub.drivers); n > 0 {
		d = sv.sub.drivers[n-1]
		sv.sub.drivers = sv.sub.drivers[:n-1]
	} else {
		d = &driver{sr: rm.StreamRunner{Manager: sv.sub.mgr}, id: sv.sub.made}
		sv.sub.made++
	}
	if err := d.x.Reset(w); err != nil {
		sv.fail(fmt.Errorf("service: %w", err))
		return
	}
	sr := &d.sr
	sr.Source = &d.x
	if sv.retry != nil {
		sr.Retry, sr.RetryRNG = sv.retry, sv.retryRNG
		sr.FailPlan = a.failPlan
	}
	if err := sv.cws.Bind(sr, wfID, 0, ts.slot); err != nil {
		sv.fail(fmt.Errorf("service: %w", err))
		return
	}
	sr.OnComplete = func() { sv.settle(d, ts, wfID, now) }
	sv.admitted = append(sv.admitted, d)
	sr.Start()
}

// admission returns the tenant's admission ts.seq, generating it from the
// tenant's workload stream when no earlier run of the seed has. A run
// admits in sequence order, so the next one to generate is always the
// next one the stream yields.
func (sv *serviceRun) admission(ts *tenantState) (admission, error) {
	in := ts.in
	if ts.seq <= len(in.wfs) {
		return in.wfs[ts.seq-1], nil
	}
	w, err := ts.spec.Workload(in.rng).Compile()
	if err != nil {
		return admission{}, err
	}
	a := admission{id: fmt.Sprintf("%s/wf-%05d", ts.spec.ID, ts.seq), w: w}
	if sv.cfg.Faults.TaskFailProb > 0 {
		// One plan fork per admission, right after the workflow itself —
		// the fixed order that keeps every run on identical per-workflow
		// plans.
		plan := sv.cfg.Faults.PlanTaskFailures(w.Len(), in.rng.Fork())
		a.failPlan = func(i int) int { return plan[i] }
	}
	in.wfs = append(in.wfs, a)
	return a, nil
}

// settle accounts the workflow d drove since start, completed or failed,
// and hands its in-flight slot to the oldest deferred arrival. A completed
// run is settled (see rm.StreamRunner.OnComplete), so its driver returns to
// the pool at once; a failed one may still have attempts in flight.
func (sv *serviceRun) settle(d *driver, ts *tenantState, wfID string, start sim.Time) {
	if d.sr.Err() != nil {
		ts.wfFailed++
	} else {
		ts.completed++
		ts.makespans = append(ts.makespans, float64(sv.eng.Now()-start))
		d.sr.Reset()
		d.x.Reset(nil)
		sv.sub.drivers = append(sv.sub.drivers, d)
	}
	// The workflow is fully accounted: release its scheduler and provenance
	// structure so session state stays bounded.
	sv.cws.ReleaseWorkflow(wfID)
	ts.inFlight--
	sv.inFlightTotal--
	// Deterministic requeue: the freed slot goes to the oldest deferred
	// arrival, at the completion timestamp.
	if len(ts.deferredQ) > 0 {
		at := ts.deferredQ[0]
		ts.deferredQ = ts.deferredQ[1:]
		sv.admit(ts, at)
		return
	}
	sv.maybeStopInjector()
}

// fail aborts the run at the next opportunity; arrival chains stop re-arming.
func (sv *serviceRun) fail(err error) {
	if sv.err == nil {
		sv.err = err
		sv.eng.Halt()
	}
}

func (sv *serviceRun) chainDone() {
	sv.activeChains--
	sv.maybeStopInjector()
}

// maybeStopInjector stops the fault processes once no arrivals remain and
// all admitted work has drained, so the engine can run dry.
func (sv *serviceRun) maybeStopInjector() {
	if sv.inj != nil && sv.activeChains == 0 && sv.inFlightTotal == 0 {
		sv.inj.Stop()
	}
}

// observe is the CWS task observer: per-tenant accounting for every terminal
// task attempt, after provenance capture. It fires at exactly the moments
// the priority-cache generation advances, so the fair-share deficits it
// maintains are never read stale by a memoized priority.
func (sv *serviceRun) observe(tenant int, _ dag.TaskID, _ int, r rm.Result) {
	ts := sv.tenants[tenant]
	ts.tasksStarted++
	ts.waits = append(ts.waits, float64(r.StartedAt-r.SubmittedAt))
	if !r.Failed {
		used := float64(r.Submission.Cores) * float64(r.FinishedAt-r.StartedAt)
		ts.usedCoreSec += used
		if sv.cfg.FairShare {
			sv.decayUsage(sv.eng.Now())
			ts.fairUsage += used
		}
	}
}

// result freezes the run into a Result.
func (sv *serviceRun) result(seed int64) *Result {
	res := &Result{
		Strategy:     "fifo",
		Seed:         seed,
		HorizonSec:   sv.cfg.HorizonSec,
		DrainedAtSec: float64(sv.eng.Now()),
	}
	if sv.cfg.FairShare {
		res.Strategy = "fairshare"
	}
	totalCores := float64(sv.cfg.Nodes * sv.cfg.CoresPerNode)
	var usedTotal float64
	for i, ts := range sv.tenants {
		if sv.only >= 0 && i != sv.only {
			continue
		}
		// result is the last reader of the run's waits: it sorts them in
		// place once, after the mean has summed them in arrival order.
		meanWait := mean(ts.waits)
		slices.Sort(ts.waits)
		tr := TenantResult{
			Tenant:          ts.spec.ID,
			Weight:          ts.weight,
			Arrivals:        ts.arrivals,
			Admitted:        ts.admitted,
			Deferred:        ts.deferrals,
			Rejected:        ts.rejected,
			Completed:       ts.completed,
			WfFailed:        ts.wfFailed,
			TasksStarted:    ts.tasksStarted,
			UsedCoreSec:     ts.usedCoreSec,
			MeanWaitSec:     meanWait,
			P50WaitSec:      metrics.QuantileSorted(ts.waits, 0.5),
			P99WaitSec:      metrics.QuantileSorted(ts.waits, 0.99),
			MeanDeferSec:    mean(ts.deferWaits),
			MeanMakespanSec: mean(ts.makespans),
		}
		if ts.arrivals > 0 {
			tr.RejectionRate = float64(ts.rejected) / float64(ts.arrivals)
		}
		usedTotal += ts.usedCoreSec
		res.Tenants = append(res.Tenants, tr)
	}
	if res.DrainedAtSec > 0 {
		res.Utilization = usedTotal / (totalCores * res.DrainedAtSec)
	}
	return res
}

// runSeed runs one seed of a sweep on sub: the contended FIFO run, the FIFO
// solo baseline of each tenant and the contended fair-share run, all on one
// set of tenant inputs. Both contended results carry the solo baselines: a
// solo run always schedules under FIFO, so fair share would only repeat
// them. The two configs must have the same tenants (see soloMismatch).
func runSeed(sub *Substrate, fifoCfg, fairCfg Config, seed int64) (fifo, fair *Result, err error) {
	in := make([]tenantInputs, len(fifoCfg.Tenants))
	if fifo, err = run(sub, fifoCfg, seed, -1, in); err != nil {
		return nil, nil, fmt.Errorf("service: fifo seed %d: %w", seed, err)
	}
	for i := range fifo.Tenants {
		solo, err := runSolo(sub, fifoCfg, seed, i, in)
		if err != nil {
			return nil, nil, fmt.Errorf("service: fifo seed %d: %w", seed, err)
		}
		attachBaseline(&fifo.Tenants[i], solo.Tenants[0].P99WaitSec, solo.Tenants[0].MeanMakespanSec)
	}
	if fair, err = run(sub, fairCfg, seed, -1, in); err != nil {
		return nil, nil, fmt.Errorf("service: fairshare seed %d: %w", seed, err)
	}
	for i := range fair.Tenants {
		ft := &fifo.Tenants[i]
		attachBaseline(&fair.Tenants[i], ft.SoloP99WaitSec, ft.SoloMeanMakespanSec)
	}
	return fifo, fair, nil
}

// attachBaseline fills tr's solo-baseline fields from the tenant's solo p99
// wait and mean makespan.
func attachBaseline(tr *TenantResult, soloP99, soloMakespan float64) {
	tr.SoloP99WaitSec = soloP99
	tr.SoloMeanMakespanSec = soloMakespan
	if soloP99 > 0 {
		tr.WaitInflationP99 = tr.P99WaitSec / soloP99
	}
	if soloMakespan > 0 {
		tr.MakespanInflation = tr.MeanMakespanSec / soloMakespan
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
