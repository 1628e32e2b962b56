// Package sweep is a parallel multi-seed ensemble runner. It executes the
// (workflow family, environment, seed) simulations of an ensemble
// concurrently across a worker pool and reduces them into deterministic,
// order-independent aggregates — the distributional view (min/median/p90/max
// makespan, utilization, speedup vs a baseline) in which the paper's
// headline numbers (CWS's 10.8 % average makespan cut, EnTK's ~90 %
// utilization) are stated.
//
// The unit of work is a (workflow, seed) group: its workflow is generated
// once and every environment runs on that one instance, in env order, so an
// ensemble of W workflows × E envs × S seeds generates W × S workflows, not
// W × E × S. Every env reads the workflow and none mutates it.
//
// Determinism contract: the same Config (workflows, environments, seeds)
// produces a bit-identical Report regardless of Workers. Every worker owns
// its substrate privately — one core.RunSession per environment, built on
// first use and reused for every later run (a Kubernetes session, lazily
// expanded ones included, resets its substrate in place; core.HPCEnv's and
// core.CloudEnv's rebuild theirs per run) — plus its two randx sources: the
// generator's, reseeded in place from each group's seed, and the runs',
// reseeded before each run from the one value a Fork after generation would
// draw. So every run sees the streams a fresh randx.New(seed) and Fork would
// give it, nothing is shared mutably between goroutines, and the reduction
// folds results in the fixed (workflow, env, seed) order — never in
// completion order. A warm run is bit-identical to a new session's first
// (core.Session's contract, enforced by the golden corpus), so session reuse
// affects wall-clock and allocation only, never the Report.
package sweep

import (
	"fmt"
	"strings"
	"sync"

	"hhcw/internal/core"
	"hhcw/internal/dag"
	"hhcw/internal/metrics"
	"hhcw/internal/randx"
)

// WorkflowSpec names a workflow family and how to generate one instance from
// a seeded source. Gen must be a pure function of rng (no shared state): it
// is called concurrently from many workers, each with its own Source. That
// Source belongs to the worker and is reseeded for the worker's next group,
// so Gen must not keep rng after it returns. Gen is called once per
// (workflow, seed); every env of the ensemble reads the workflow it returns,
// and none may mutate it.
type WorkflowSpec struct {
	Name string
	Gen  func(rng *randx.Source) *dag.Workflow
}

// EnvSpec names an environment and how to build a fresh instance. New must
// return a new Environment per call: each worker builds its own session
// from its own instance, so workers share no substrate.
type EnvSpec struct {
	Name string
	New  func() core.Environment
	// NewSession, when non-nil, builds this env's sessions in place of
	// New().NewSession. Either way each worker builds one session per env
	// and reuses it across all of its runs on that env. A session that
	// cannot be built fails each run the worker gives it, with that run's
	// attribution.
	NewSession func() (core.RunSession, error)
}

// Config describes one ensemble: the cartesian product of Workflows × Envs ×
// Seeds, executed on Workers goroutines.
type Config struct {
	Workflows []WorkflowSpec
	Envs      []EnvSpec
	Seeds     []int64
	// Workers is the pool size; <= 0 means runtime.NumCPU(). The pool never
	// exceeds the number of (workflow, seed) groups. It affects wall-clock
	// time only, never the Report.
	Workers int
	// Baseline names the EnvSpec whose makespan is the denominator of the
	// per-seed speedup column; empty disables speedups.
	Baseline string
	// Progress, when non-nil, is called after each completed simulation
	// with the number done so far and the total. Calls are serialized.
	Progress func(done, total int)
}

// Seeds returns [base, base+n) — the conventional contiguous seed block.
func Seeds(base int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = base + int64(i)
	}
	return s
}

// RunResult is one simulation's outcome. Provenance is stripped: it holds
// substrate-internal pointers that are meaningless outside the worker that
// produced them and would defeat bit-identical comparison.
type RunResult struct {
	Workflow string
	Env      string
	Seed     int64
	Result   core.Result
}

// Cell aggregates one (workflow, env) group over all seeds.
type Cell struct {
	Workflow string
	Env      string
	Makespan metrics.Summary
	// UtilMean is the mean time-averaged core utilization across seeds.
	UtilMean float64
	// SpeedupMean is mean(baseline makespan / this makespan) over seeds,
	// 0 when Config.Baseline is empty or names this env itself.
	SpeedupMean float64
	// CutMeanPct / CutMaxPct are the mean and max per-seed makespan
	// reduction vs the baseline, in percent (the paper's §3.5 framing).
	CutMeanPct float64
	CutMaxPct  float64
	// Failure/recovery distributions over seeds — all-zero unless the env
	// injects faults.
	FailedAttempts   metrics.Summary
	Retries          metrics.Summary
	TerminalFailures metrics.Summary
	BackoffSec       metrics.Summary
	// Prediction-loop distributions over seeds — all-zero unless the env ran
	// with an online predictor that warmed up (core.Result pred fields).
	PredSamples metrics.Summary
	PredMREPct  metrics.Summary
}

// Faulty reports whether any seed in the cell observed a failure.
func (c *Cell) Faulty() bool { return c.FailedAttempts.Max > 0 || c.TerminalFailures.Max > 0 }

// Predicted reports whether any seed in the cell placed work with a warm
// runtime prediction.
func (c *Cell) Predicted() bool { return c.PredSamples.Max > 0 }

// Report is the reduced ensemble. Field values are pure functions of the
// Config's workflows, envs, and seeds — Workers never leaks in.
type Report struct {
	Runs  []RunResult // fixed (workflow, env, seed) order
	Cells []Cell      // fixed (workflow, env) order
}

// Run executes the ensemble and reduces it. Its unit of work is one
// (workflow, seed) group: the workflow is generated once and every env runs
// on it in env order, each result landing in its (workflow, env, seed) slot.
// Any simulation error aborts the sweep; when several simulations fail, the
// error of the lowest (workflow, env, seed) index is returned so failures
// are as deterministic as successes.
func Run(cfg Config) (*Report, error) {
	if len(cfg.Workflows) == 0 || len(cfg.Envs) == 0 || len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("sweep: config needs workflows, envs, and seeds")
	}
	for _, w := range cfg.Workflows {
		if w.Gen == nil {
			return nil, fmt.Errorf("sweep: workflow %q has no generator", w.Name)
		}
	}
	for _, e := range cfg.Envs {
		if e.New == nil {
			return nil, fmt.Errorf("sweep: env %q has no factory", e.Name)
		}
	}
	nEnvs, nSeeds := len(cfg.Envs), len(cfg.Seeds)
	groups := len(cfg.Workflows) * nSeeds
	total := groups * nEnvs
	// Each index of results and errs is written by exactly one worker.
	results := make([]RunResult, total)
	errs := make([]error, total)
	var (
		mu   sync.Mutex
		done int
	)
	// One warm-state slot per worker: slot [worker] is touched only by that
	// worker's goroutine (ForEachWorker's contract), so session and source
	// reuse needs no locking and never crosses goroutines.
	workers := make([]workerState, PoolWorkers(groups, cfg.Workers))
	// fn records each simulation's error in errs and returns nil: the error
	// to report is the lowest simulation index's, not the lowest group's.
	_ = ForEachWorker(groups, cfg.Workers, nil, func(worker, g int) error {
		wi, si := g/nSeeds, g%nSeeds
		ws := &workers[worker]
		w, runSeed, genErr := generate(cfg.Workflows[wi].Gen, &ws.gen, cfg.Seeds[si])
		for ei := range cfg.Envs {
			idx := (wi*nEnvs+ei)*nSeeds + si
			err := genErr
			if err == nil {
				results[idx], err = runOne(&cfg, wi, ei, si, ws, w, ws.run.Reseed(runSeed))
				if err != nil {
					// The session may hold arbitrarily corrupted state after
					// a panic; drop it so the runs this worker still drains
					// (the sweep aborts, but workers finish the queue) get a
					// fresh substrate.
					ws.drop(ei)
				}
			}
			if err != nil {
				errs[idx] = fmt.Errorf("sweep: %s on %s seed %d: %w",
					cfg.Workflows[wi].Name, cfg.Envs[ei].Name, cfg.Seeds[si], err)
			}
			if cfg.Progress != nil {
				mu.Lock()
				done++
				cfg.Progress(done, total)
				mu.Unlock()
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reduce(cfg, results), nil
}

// workerState is one worker's reusable state: a session per environment
// and the two sources every group reseeds. Session slots resolve lazily on
// first use — a worker that never runs an env never builds its substrate.
type workerState struct {
	slots    []core.RunSession
	gen, run randx.Source
}

// acquire returns the worker's session for env ei, building it on first use.
func (ws *workerState) acquire(cfg *Config, ei int) (core.RunSession, error) {
	if ws.slots == nil {
		ws.slots = make([]core.RunSession, len(cfg.Envs))
	}
	if ws.slots[ei] == nil {
		s, err := newEnvSession(cfg.Envs[ei])
		if err != nil {
			return nil, err
		}
		ws.slots[ei] = s
	}
	return ws.slots[ei], nil
}

// drop discards a possibly-corrupted session; the next acquire builds a
// fresh one (fresh ≡ warm under the session determinism contract).
func (ws *workerState) drop(ei int) {
	if ws.slots != nil {
		ws.slots[ei] = nil
	}
}

// newEnvSession builds a session for spec: through its NewSession override
// when set, otherwise from a fresh New.
func newEnvSession(spec EnvSpec) (core.RunSession, error) {
	if spec.NewSession != nil {
		return spec.NewSession()
	}
	return spec.New().NewSession()
}

// generate builds one group's workflow: the worker's gen source reseeded in
// place from the seed, the workflow drawn from it, then the seed of the
// runs' source — the one value ForkInto would draw. Reseeding in place
// yields the same streams as a fresh randx.New(seed). A panic in Gen becomes
// an error.
func generate(gen func(*randx.Source) *dag.Workflow, src *randx.Source, seed int64) (w *dag.Workflow, runSeed int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			w, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	rng := src.Reseed(seed)
	if w = gen(rng); w == nil {
		return nil, 0, fmt.Errorf("generator returned nil workflow")
	}
	return w, rng.Int63(), nil
}

// runOne runs the group's workflow on env ei, on the worker's session for
// it (built on first use, reset in place before each later run). rng is the
// worker's run source, reseeded for this run, so substrate randomness (fault
// injection) is a pure function of the seed and every env of the group sees
// the same stream. The source and the workflow are shared with the group's
// other runs, so no run may keep rng or mutate w. A panic, in the run or in
// building the session, is converted into an error so one bad seed aborts
// the sweep deterministically instead of killing the process.
func runOne(cfg *Config, wi, ei, si int, ws *workerState, w *dag.Workflow, rng *randx.Source) (rr RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			rr, err = RunResult{}, fmt.Errorf("panic: %v", p)
		}
	}()
	sess, err := ws.acquire(cfg, ei)
	if err != nil {
		return RunResult{}, err
	}
	res, err := sess.RunSeeded(w, rng)
	if err != nil {
		return RunResult{}, err
	}
	r := *res
	r.Provenance = nil
	return RunResult{Workflow: cfg.Workflows[wi].Name, Env: cfg.Envs[ei].Name, Seed: cfg.Seeds[si], Result: r}, nil
}

// reduce folds results in (workflow, env, seed) order into per-(workflow, env) cells. Per-cell
// order statistics are computed through one reused scratch slice (filled in
// run order, summarized in place), so reduction allocates the Cells slice
// and two scratch buffers regardless of how many cells × metrics it folds —
// the previous version paid five fresh slices per cell.
func reduce(cfg Config, results []RunResult) *Report {
	rep := &Report{Runs: results}
	nSeeds := len(cfg.Seeds)
	group := func(wi, ei int) []RunResult {
		base := (wi*len(cfg.Envs) + ei) * nSeeds
		return results[base : base+nSeeds]
	}
	baseIdx := -1
	for ei, e := range cfg.Envs {
		if e.Name == cfg.Baseline {
			baseIdx = ei
		}
	}
	rep.Cells = make([]Cell, 0, len(cfg.Workflows)*len(cfg.Envs))
	scratch := make([]float64, nSeeds)
	baseMakespans := make([]float64, nSeeds)
	for wi := range cfg.Workflows {
		if baseIdx >= 0 {
			for i, r := range group(wi, baseIdx) {
				baseMakespans[i] = r.Result.MakespanSec
			}
		}
		for ei := range cfg.Envs {
			runs := group(wi, ei)
			summarize := func(get func(*core.Result) float64) metrics.Summary {
				for i := range runs {
					scratch[i] = get(&runs[i].Result)
				}
				return metrics.SummarizeInPlace(scratch)
			}
			var util metrics.Agg
			for i := range runs {
				util.Observe(runs[i].Result.UtilizationCore)
			}
			c := Cell{
				Workflow: cfg.Workflows[wi].Name,
				Env:      cfg.Envs[ei].Name,
				Makespan: summarize(func(r *core.Result) float64 { return r.MakespanSec }),
				UtilMean: util.Mean(),
				FailedAttempts: summarize(func(r *core.Result) float64 {
					return float64(r.FailedAttempts)
				}),
				Retries: summarize(func(r *core.Result) float64 { return float64(r.Retries) }),
				TerminalFailures: summarize(func(r *core.Result) float64 {
					return float64(r.TerminalFailures)
				}),
				BackoffSec:  summarize(func(r *core.Result) float64 { return r.BackoffSec }),
				PredSamples: summarize(func(r *core.Result) float64 { return float64(r.PredSamples) }),
				PredMREPct:  summarize(func(r *core.Result) float64 { return r.PredMREPct }),
			}
			if baseIdx >= 0 && ei != baseIdx {
				var speedup, cut metrics.Agg
				for i := range runs {
					m := runs[i].Result.MakespanSec
					if m > 0 && baseMakespans[i] > 0 {
						speedup.Observe(baseMakespans[i] / m)
						cut.Observe((1 - m/baseMakespans[i]) * 100)
					}
				}
				c.SpeedupMean = speedup.Mean()
				c.CutMeanPct = cut.Mean()
				c.CutMaxPct = cut.Max()
			}
			rep.Cells = append(rep.Cells, c)
		}
	}
	return rep
}

// Table renders the cells as a fixed-width table. The bytes are part of the
// determinism contract: same Config ⇒ same Table, independent of Workers.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-22s %6s %10s %10s %10s %10s %7s %9s %9s\n",
		"workflow", "environment", "seeds", "min", "median", "p90", "max", "util", "speedup", "cut-mean")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-18s %-22s %6d %10s %10s %10s %10s %6.1f%%",
			c.Workflow, c.Env, c.Makespan.N,
			metrics.HumanSeconds(c.Makespan.Min), metrics.HumanSeconds(c.Makespan.Median),
			metrics.HumanSeconds(c.Makespan.P90), metrics.HumanSeconds(c.Makespan.Max),
			c.UtilMean*100)
		if c.SpeedupMean > 0 {
			fmt.Fprintf(&b, " %8.3fx %8.1f%%", c.SpeedupMean, c.CutMeanPct)
		} else {
			fmt.Fprintf(&b, " %9s %9s", "-", "-")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FaultTable renders the failure/recovery distributions of fault-injecting
// cells (empty string when no cell saw a failure). Like Table, its bytes are
// part of the determinism contract.
func (r *Report) FaultTable() string {
	any := false
	for i := range r.Cells {
		if r.Cells[i].Faulty() {
			any = true
			break
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-28s %6s %16s %16s %16s %12s\n",
		"workflow", "environment", "seeds", "failed-attempts", "retries", "terminal", "backoff-med")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-18s %-28s %6d %7.1f med %4.0f %7.1f med %4.0f %7.1f med %4.0f %12s\n",
			c.Workflow, c.Env, c.Makespan.N,
			c.FailedAttempts.Mean(), c.FailedAttempts.Median,
			c.Retries.Mean(), c.Retries.Median,
			c.TerminalFailures.Mean(), c.TerminalFailures.Median,
			metrics.HumanSeconds(c.BackoffSec.Median))
	}
	return b.String()
}

// PredictionTable renders the ablation view of prediction-loop cells —
// per-(workflow, env) prediction volume and accuracy next to the makespan
// cut vs the configured baseline (empty string when no cell predicted).
// Like Table, its bytes are part of the determinism contract.
func (r *Report) PredictionTable() string {
	any := false
	for i := range r.Cells {
		if r.Cells[i].Predicted() {
			any = true
			break
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-40s %6s %12s %10s %10s %10s %9s\n",
		"workflow", "environment", "seeds", "samples-med", "mre-mean", "mre-med", "makespan", "cut-mean")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-18s %-40s %6d %12.0f %9.1f%% %9.1f%% %10s",
			c.Workflow, c.Env, c.Makespan.N,
			c.PredSamples.Median,
			c.PredMREPct.Mean(), c.PredMREPct.Median,
			metrics.HumanSeconds(c.Makespan.Median))
		if c.SpeedupMean > 0 {
			fmt.Fprintf(&b, " %8.1f%%", c.CutMeanPct)
		} else {
			fmt.Fprintf(&b, " %9s", "-")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fingerprint is a compact digest of every per-seed result, suitable for
// asserting bit-identical sweeps without retaining full reports.
func (r *Report) Fingerprint() string {
	var b strings.Builder
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%s|%s|%d|%s\n", run.Workflow, run.Env, run.Seed, run.Result.Fingerprint())
	}
	return b.String()
}
