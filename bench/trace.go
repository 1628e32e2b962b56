package bench

import (
	"time"

	"hhcw/internal/cluster"
	"hhcw/internal/compose"
	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/service"
)

// layer names a boundary the tracer times.
type layer int

const (
	layerGenerate layer = iota // workflow generation: sweep Gen and tenant Compile
	layerRun                   // core.RunSession.RunSeeded
	layerExpander              // dag.Expander calls
	layerService               // service.Sweep
	nLayers
)

var layerNames = [nLayers]string{"dag.generate", "core.run", "dag.expander", "service.sweep"}

// Counters are the exact work counts the traced run collects at layer
// boundaries. They depend only on the inputs, so two traced runs of the
// same blocks report the same counts.
type Counters struct {
	// rm.Strategy wrapper on the stream workload's TaskManager.
	DispatchPasses int64 `json:"dispatch_passes"`
	PendingScanned int64 `json:"pending_scanned"`
	RMPicks        int64 `json:"rm_picks"`
	RMCandidates   int64 `json:"rm_candidates"`
	// dag.Expander wrapper around the jaws expander.
	NextCalls int64 `json:"next_calls"`
	NextHits  int64 `json:"next_hits"`
	// cwsi.Strategy wrapper around Rank and Baseline.
	PriorityCalls  int64 `json:"priority_calls"`
	CWSIPicks      int64 `json:"cwsi_picks"`
	CWSICandidates int64 `json:"cwsi_candidates"`
	// RunSession wrapper: sessions built, and what each core.Result says.
	SessionsBuilt  int64 `json:"sessions_built"`
	Sims           int64 `json:"sims"`
	ProvRecords    int64 `json:"provenance_records"`
	FailedAttempts int64 `json:"failed_attempts"`
	Retries        int64 `json:"retries"`
	PredSamples    int64 `json:"pred_samples"`
	// compose.Compiler wrapper around the tenant workloads.
	Compiles int64 `json:"compiles"`
	// service.TenantResult counters of the contended runs.
	ServiceRuns  int64 `json:"service_runs"`
	Admitted     int64 `json:"admitted"`
	Deferred     int64 `json:"deferred"`
	Rejected     int64 `json:"rejected"`
	TasksStarted int64 `json:"tasks_started"`
	// sim.Engine.Fired of the stream workload's engine.
	Events int64 `json:"events"`
}

// Span is one timed call at a layer boundary. Call spans name the block
// span they ran in as their parent.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer records counts and spans in memory for one traced run. A nil
// *Tracer is the untraced run: every wrapper constructor then returns its
// argument unchanged, so the untraced run executes the plain entry points.
type Tracer struct {
	C     Counters
	Busy  [nLayers]time.Duration
	Spans []Span
	t0    time.Time
	block int           // ID of the open block span
	calls int64         // expander calls, for sampling
	timer time.Duration // what timing one call adds to its duration
}

// expanderSample is how many expander calls share one timed call: timing
// every call would cost more than the calls do. It is prime, so it does not
// beat with the runner's short, regular call patterns.
const expanderSample = 61

// NewTracer returns an empty tracer whose span clock starts now.
func NewTracer() *Tracer {
	// A sampled expander call lasts tens of nanoseconds, so the cost of
	// reading the clock around it is measured once and taken off each sample.
	d := make([]float64, 1001)
	for i := range d {
		start := time.Now()
		d[i] = float64(time.Since(start))
	}
	return &Tracer{t0: time.Now(), timer: time.Duration(Quantile(d, 0.5))}
}

// reset drops everything recorded so far, so the warm-up block does not
// count.
func (t *Tracer) reset() {
	if t == nil {
		return
	}
	t.C, t.Busy, t.Spans, t.block, t.calls = Counters{}, [nLayers]time.Duration{}, nil, 0, 0
}

// beginBlock opens the span that the calls of block b run in.
func (t *Tracer) beginBlock(start time.Time) {
	if t == nil {
		return
	}
	t.Spans = append(t.Spans, Span{ID: len(t.Spans) + 1, Name: "block", Start: int64(start.Sub(t.t0))})
	t.block = len(t.Spans)
}

// endBlock closes the open block span.
func (t *Tracer) endBlock() {
	if t == nil || t.block == 0 {
		return
	}
	t.Spans[t.block-1].End = int64(time.Since(t.t0))
	t.block = 0
}

// end closes a call span of layer l that started at start.
func (t *Tracer) end(l layer, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.Busy[l] += now.Sub(start)
	t.Spans = append(t.Spans, Span{
		ID: len(t.Spans) + 1, Parent: t.block, Name: layerNames[l],
		Start: int64(start.Sub(t.t0)), End: int64(now.Sub(t.t0)),
	})
}

// sampleStart starts timing an expander call when it is one of every
// expanderSample calls, and returns the zero time otherwise.
func (t *Tracer) sampleStart() time.Time {
	t.calls++
	if t.calls%expanderSample != 0 {
		return time.Time{}
	}
	return time.Now()
}

// sampleEnd adds a timed call, scaled by expanderSample, to the expander's
// busy time without keeping a span: the expander is called millions of
// times per run.
func (t *Tracer) sampleEnd(start time.Time) {
	if start.IsZero() {
		return
	}
	if d := time.Since(start) - t.timer; d > 0 {
		t.Busy[layerExpander] += expanderSample * d
	}
}

// busyNS returns each layer's busy time in nanoseconds, by layer name.
func (t *Tracer) busyNS() map[string]int64 {
	m := make(map[string]int64, nLayers)
	for l, d := range t.Busy {
		m[layerNames[l]] = int64(d)
	}
	return m
}

// gen wraps a sweep workflow generator in a generation span.
func (t *Tracer) gen(g func(*randx.Source) *dag.Workflow) func(*randx.Source) *dag.Workflow {
	if t == nil {
		return g
	}
	return func(r *randx.Source) *dag.Workflow {
		start := time.Now()
		w := g(r)
		t.end(layerGenerate, start)
		return w
	}
}

// strategy wraps a CWS strategy in a counting forwarder.
func (t *Tracer) strategy(s cwsi.Strategy) cwsi.Strategy {
	if t == nil {
		return s
	}
	return countingStrategy{inner: s, c: &t.C}
}

// session returns the EnvSpec.NewSession of a traced env: it counts the
// sessions built and hands out forwarding sessions. Untraced envs leave
// NewSession nil, so sweep.Run resolves their sessions itself.
func (t *Tracer) session(env func() *core.KubernetesEnv) func() (core.RunSession, error) {
	if t == nil {
		return nil
	}
	return func() (core.RunSession, error) {
		t.C.SessionsBuilt++
		s, err := env().NewSession()
		if err != nil {
			return nil, err
		}
		return tracedSession{inner: s, t: t}, nil
	}
}

// workload wraps a tenant's workload so every Compile is counted and timed.
func (t *Tracer) workload(wl func(*randx.Source) compose.Compiler) func(*randx.Source) compose.Compiler {
	if t == nil {
		return wl
	}
	return func(r *randx.Source) compose.Compiler { return tracedCompiler{inner: wl(r), t: t} }
}

// serviceRuns adds the contended runs' tenant counters.
func (t *Tracer) serviceRuns(runs []*service.Result) {
	if t == nil {
		return
	}
	for _, r := range runs {
		t.C.ServiceRuns++
		for _, tr := range r.Tenants {
			t.C.Admitted += int64(tr.Admitted)
			t.C.Deferred += int64(tr.Deferred)
			t.C.Rejected += int64(tr.Rejected)
			t.C.TasksStarted += int64(tr.TasksStarted)
			// The CWS writes one provenance record per terminal attempt,
			// which is exactly what the tenant observer counts.
			t.C.ProvRecords += int64(tr.TasksStarted + tr.PendingAborts)
		}
	}
}

// rmStrategy is the stream TaskManager's strategy: nil (the manager's own
// FIFO default) untraced, a counting forwarder around rm.FIFO traced.
func (t *Tracer) rmStrategy() rm.Strategy {
	if t == nil {
		return nil
	}
	return countingRM{inner: rm.FIFO{}, c: &t.C}
}

// expander wraps the stream's expander in a counting, timing forwarder.
func (t *Tracer) expander(x dag.Expander) dag.Expander {
	if t == nil {
		return x
	}
	return tracedExpander{inner: x, t: t}
}

// events adds a finished engine's fired-event count.
func (t *Tracer) events(n uint64) {
	if t != nil {
		t.C.Events += int64(n)
	}
}

// countingStrategy forwards cwsi.Strategy, counting priority computations
// that reach the strategy and node picks with their candidate lists.
type countingStrategy struct {
	inner cwsi.Strategy
	c     *Counters
}

func (s countingStrategy) Name() string { return s.inner.Name() }

func (s countingStrategy) Priority(sub *rm.Submission, ctx *cwsi.Context) float64 {
	s.c.PriorityCalls++
	return s.inner.Priority(sub, ctx)
}

func (s countingStrategy) PickNode(sub *rm.Submission, cands []*cluster.Node, ctx *cwsi.Context) *cluster.Node {
	s.c.CWSIPicks++
	s.c.CWSICandidates += int64(len(cands))
	return s.inner.PickNode(sub, cands, ctx)
}

// countingRM forwards rm.Strategy, counting dispatch passes with the pending
// submissions each scans, and node picks with their candidate lists.
type countingRM struct {
	inner rm.Strategy
	c     *Counters
}

func (s countingRM) Name() string { return s.inner.Name() }

func (s countingRM) Prioritize(pending []*rm.Submission) []*rm.Submission {
	s.c.DispatchPasses++
	s.c.PendingScanned += int64(len(pending))
	return s.inner.Prioritize(pending)
}

func (s countingRM) PickNode(sub *rm.Submission, cands []*cluster.Node) *cluster.Node {
	s.c.RMPicks++
	s.c.RMCandidates += int64(len(cands))
	return s.inner.PickNode(sub, cands)
}

// tracedSession forwards core.RunSession, timing each run and reading its
// core.Result before sweep.Run strips the provenance store.
type tracedSession struct {
	inner core.RunSession
	t     *Tracer
}

func (s tracedSession) Name() string    { return s.inner.Name() }
func (s tracedSession) Audit() []string { return s.inner.Audit() }

func (s tracedSession) RunSeeded(w *dag.Workflow, rng *randx.Source) (*core.Result, error) {
	start := time.Now()
	res, err := s.inner.RunSeeded(w, rng)
	s.t.end(layerRun, start)
	if err != nil {
		return nil, err
	}
	c := &s.t.C
	c.Sims++
	c.FailedAttempts += int64(res.FailedAttempts)
	c.Retries += int64(res.Retries)
	c.PredSamples += int64(res.PredSamples)
	if st, ok := res.Provenance.(*provenance.Store); ok {
		c.ProvRecords += int64(st.Len())
	}
	return res, nil
}

// tracedCompiler forwards compose.Compiler inside a generation span.
type tracedCompiler struct {
	inner compose.Compiler
	t     *Tracer
}

func (c tracedCompiler) Compile() (*dag.Workflow, error) {
	start := time.Now()
	w, err := c.inner.Compile()
	c.t.C.Compiles++
	c.t.end(layerGenerate, start)
	return w, err
}

// tracedExpander forwards dag.Expander, counting Next calls and timing a
// sample of all calls.
type tracedExpander struct {
	inner dag.Expander
	t     *Tracer
}

func (x tracedExpander) Name() string { return x.inner.Name() }

func (x tracedExpander) Total() int {
	start := x.t.sampleStart()
	n := x.inner.Total()
	x.t.sampleEnd(start)
	return n
}

func (x tracedExpander) Next() (*dag.Task, int, bool) {
	start := x.t.sampleStart()
	task, idx, ok := x.inner.Next()
	x.t.sampleEnd(start)
	x.t.C.NextCalls++
	if ok {
		x.t.C.NextHits++
	}
	return task, idx, ok
}

func (x tracedExpander) TaskDone(id dag.TaskID) {
	start := x.t.sampleStart()
	x.inner.TaskDone(id)
	x.t.sampleEnd(start)
}

func (x tracedExpander) TaskFailed(id dag.TaskID) int {
	start := x.t.sampleStart()
	n := x.inner.TaskFailed(id)
	x.t.sampleEnd(start)
	return n
}

func (x tracedExpander) Retire(task *dag.Task) {
	start := x.t.sampleStart()
	x.inner.Retire(task)
	x.t.sampleEnd(start)
}
