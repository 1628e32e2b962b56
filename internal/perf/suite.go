package perf

import (
	"fmt"
	"strconv"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/compose"
	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/entk"
	"hhcw/internal/exaam"
	"hhcw/internal/fault"
	"hhcw/internal/jaws"
	"hhcw/internal/metrics"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/service"
	"hhcw/internal/sim"
	"hhcw/internal/sweep"
)

// Spec is one tracked benchmark: a name and a standard Go benchmark body.
// Bodies must call b.ReportAllocs() so allocation metrics land in the
// report, and attach domain metrics via b.ReportMetric.
type Spec struct {
	Name  string
	Bench func(b *testing.B)
}

// Suite returns the tracked benchmarks: the event-core microbenchmarks the
// optimization trajectory gates on, the aggregation primitive the reducers
// lean on, and representative sweep / EnTK / CWSI workloads whose domain
// metrics are deterministic virtual-time outputs (so they gate exactly).
// short trims iteration-independent workload sizes — the resulting report
// is only comparable to other short reports.
func Suite(short bool) []Spec {
	depth, seeds, cwsSeeds := 16384, 60, 2
	dqPerType, dqTasks, dqChurn := 40, 1500, 8
	millionShards := 1_000_000
	svcSeeds := 6
	fanDepth := 7
	predSeeds := 20
	stormSeeds := 50
	if short {
		depth, seeds, cwsSeeds = 4096, 10, 1
		dqPerType, dqTasks, dqChurn = 12, 400, 4
		millionShards = 50_000
		svcSeeds = 2
		fanDepth = 4
		predSeeds = 5
		stormSeeds = 10
	}
	return []Spec{
		{Name: "EngineThroughput", Bench: func(b *testing.B) {
			b.ReportAllocs()
			e := sim.NewEngine()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.At(e.Now()+1, func() {})
				e.Step()
			}
		}},
		{Name: "EngineDeepQueue", Bench: func(b *testing.B) {
			b.ReportAllocs()
			e := sim.NewEngine()
			for i := 0; i < depth; i++ {
				e.At(sim.Time(1e9+float64(i)), func() {})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.At(sim.Time(float64(i)+1), func() {})
				e.Step()
			}
		}},
		{Name: "EngineCancel", Bench: func(b *testing.B) {
			b.ReportAllocs()
			e := sim.NewEngine()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := e.At(sim.Time(i)+1, func() {})
				ev.Cancel()
				e.Step()
			}
		}},
		{Name: "MetricsSummarize", Bench: func(b *testing.B) {
			b.ReportAllocs()
			r := randx.New(11)
			vals := make([]float64, 1000)
			for i := range vals {
				vals[i] = r.Float64() * 1e4
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				metrics.Summarize(vals)
			}
		}},
		{Name: "SweepMontage", Bench: func(b *testing.B) {
			// Warm steady-state ensemble execution: one session per
			// environment and one workflow per seed, built once; each op
			// replays the full 2×seeds ensemble through the warm RunSeeded
			// path. Workflow generation and the seed discipline match the
			// sweep's exactly (generate, then fork), and fault-free
			// runs never consume the fork, so every iteration replays the same
			// ensemble and the domain metrics below are bit-identical to the
			// sweep.Run form this benchmark previously wrapped.
			b.ReportAllocs()
			opts := dag.GenOpts{MeanDur: 300, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9}
			newSess := func(env *core.KubernetesEnv) core.RunSession {
				s, err := env.NewSession()
				if err != nil {
					b.Fatal(err)
				}
				return s
			}
			fifo := newSess(&core.KubernetesEnv{Nodes: 4, CoresPerNode: 8})
			cws := newSess(&core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}})
			wfs := make([]*dag.Workflow, seeds)
			forks := make([]*randx.Source, seeds)
			for si := range wfs {
				rng := randx.New(int64(1 + si))
				wfs[si] = dag.MontageLike(rng, 8, opts)
				forks[si] = rng.Fork()
			}
			base := make([]float64, seeds)
			cwsMk := make([]float64, seeds)
			var util, cut metrics.Agg
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				util, cut = metrics.Agg{}, metrics.Agg{}
				for si := range wfs {
					r, err := fifo.RunSeeded(wfs[si], forks[si])
					if err != nil {
						b.Fatal(err)
					}
					base[si] = r.MakespanSec
				}
				for si := range wfs {
					r, err := cws.RunSeeded(wfs[si], forks[si])
					if err != nil {
						b.Fatal(err)
					}
					cwsMk[si] = r.MakespanSec
					util.Observe(r.UtilizationCore)
					if cwsMk[si] > 0 && base[si] > 0 {
						cut.Observe((1 - cwsMk[si]/base[si]) * 100)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(seeds*2*b.N)/b.Elapsed().Seconds(), "sims_per_s")
			b.ReportMetric(metrics.Summarize(cwsMk).Median, "median_makespan_s")
			b.ReportMetric(util.Mean()*100, "util_mean_pct")
			b.ReportMetric(cut.Mean(), "cut_mean_pct")
		}},
		{Name: "SchedulePredicted", Bench: func(b *testing.B) {
			// The §3.4 prediction loop on its strongest scenario: a
			// heterogeneous contended cluster where the same FIFO-like
			// scheduler runs predictor-off vs closed-loop Lotaru. The domain
			// metrics are deterministic virtual-time outputs and gate
			// exactly: median predicted-run makespan, makespan cut vs off,
			// median relative prediction error, and the median number of
			// warm-predicted placements per run.
			b.ReportAllocs()
			opts := dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4, MeanMem: 2e9}
			cfg := sweep.Config{
				Workflows: []sweep.WorkflowSpec{{
					Name: "rnaseq-12",
					Gen:  func(r *randx.Source) *dag.Workflow { return dag.RNASeqLike(r, 12, opts) },
				}},
				Envs: []sweep.EnvSpec{
					{Name: "off", New: func() core.Environment {
						return &core.KubernetesEnv{Nodes: 2, Heterogeneous: true, Strategy: cwsi.Baseline{}}
					}},
					{Name: "lotaru", New: func() core.Environment {
						return &core.KubernetesEnv{Nodes: 2, Heterogeneous: true, Strategy: cwsi.Baseline{}, Predict: "lotaru"}
					}},
				},
				Seeds:    sweep.Seeds(13, predSeeds),
				Baseline: "off",
			}
			var rep *sweep.Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = sweep.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			lot := &rep.Cells[1]
			b.ReportMetric(float64(predSeeds*2*b.N)/b.Elapsed().Seconds(), "sims_per_s")
			b.ReportMetric(lot.Makespan.Median, "median_makespan_s")
			b.ReportMetric(lot.CutMeanPct, "cut_mean_pct")
			b.ReportMetric(lot.PredMREPct.Median, "pred_mre_pct")
			b.ReportMetric(lot.PredSamples.Median, "pred_samples_med")
		}},
		{Name: "EnTKStage3", Bench: func(b *testing.B) {
			b.ReportAllocs()
			var rep *entk.Report
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				cl := cluster.Frontier(eng, 128)
				bm := rm.NewBatchManager(cl, rm.FrontierPolicy)
				cfg := exaam.Config{GridDim: 2, GridLevel: 1, MeltPoolCases: 4, MicroParams: 2,
					LoadingDirections: 2, Temperatures: 1, RVEs: 1, Seed: 3}
				am := entk.NewAppManager(cl, bm, entk.FrontierResource(128, 12*3600))
				am.Policy = rm.FrontierPolicy
				var err error
				rep, err = am.Run(exaam.Stage3Pipeline(cfg))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.TasksExecuted), "tasks_executed")
			b.ReportMetric(rep.Utilization*100, "util_pct")
			b.ReportMetric(rep.MeasuredSchedRate, "sched_tasks_per_s")
			b.ReportMetric(rep.MeasuredLaunchRate, "launch_tasks_per_s")
		}},
		{Name: "ScheduleDenseQueue", Bench: func(b *testing.B) {
			// The dispatch hot path under pressure: a dense pending queue on a
			// heterogeneous cluster with node fail/repair churn, driven through
			// rm.TaskManager — the workload the free-capacity index and the
			// zero-alloc schedule pass exist for. All reported metrics are
			// deterministic virtual-time outputs and gate exactly.
			b.ReportAllocs()
			var makespan, meanWait float64
			var completed, failed int
			// Warm-run form: the substrate is built once and reset in place
			// per iteration — what this benchmark gates is dispatch, not
			// construction. The domain metrics still gate exactly because
			// Reset restores the cold initial state bit for bit.
			eng := sim.NewEngine()
			cl := cluster.Heterogeneous(eng, dqPerType)
			m := rm.NewTaskManager(cl, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 {
					eng.Reset()
					cl.Reset()
					m.Reset()
				}
				r := randx.New(4242)
				for j := 0; j < dqTasks; j++ {
					id := dag.TaskID(fmt.Sprintf("dq%04d", j))
					cores := 1 + r.Intn(8)
					mem := float64(1+r.Intn(8)) * 4e9
					dur := 30 + r.Float64()*300
					at := sim.Time(r.Float64() * 120)
					eng.At(at, func() {
						m.Submit(&rm.Submission{
							TaskID: id,
							Cores:  cores,
							Mem:    mem,
							Runtime: func(*cluster.Node) float64 {
								return dur
							},
						})
					})
				}
				nodes := cl.Nodes()
				for k := 0; k < dqChurn; k++ {
					n := nodes[(k*31+7)%len(nodes)]
					eng.At(sim.Time(60+25*k), func() { cl.FailNode(n) })
					eng.At(sim.Time(300+25*k), func() { cl.RepairNode(n) })
				}
				eng.Run()
				makespan = float64(eng.Now())
				completed, failed = m.Completed(), m.Failed()
				sum, started := m.QueueWait()
				meanWait = sum / float64(started)
			}
			b.ReportMetric(makespan, "makespan_s")
			b.ReportMetric(float64(completed), "tasks_completed")
			b.ReportMetric(float64(failed), "tasks_failed")
			b.ReportMetric(meanWait, "mean_wait_s")
		}},
		{Name: "ScheduleMillionTask", Bench: func(b *testing.B) {
			// The extreme-scale run path end to end: a million-shard scatter
			// streamed through the lazy expander, the event engine and the
			// task manager, under a fixed admission window. Gates both cost
			// (allocs/op, B/op — resident state must stay O(window), not
			// O(tasks)) and exact domain outputs (makespan, completions, peak
			// residency).
			b.ReportAllocs()
			wdl := fmt.Sprintf(`
workflow millionscatter
task prep cpu=1 dur=10s
task work cpu=1 dur=60s scatter=%d after=prep
task gather cpu=1 dur=10s after=work
`, millionShards)
			var makespan float64
			var completed, peak int
			for i := 0; i < b.N; i++ {
				def, err := jaws.Parse(wdl)
				if err != nil {
					b.Fatal(err)
				}
				x, err := def.Expand()
				if err != nil {
					b.Fatal(err)
				}
				eng := sim.NewEngine()
				cl := cluster.New(eng, "site", cluster.Spec{
					Type:  cluster.NodeType{Name: "node", Cores: 8, MemBytes: 64e9},
					Count: 128,
				})
				m := rm.NewTaskManager(cl, nil)
				sr := &rm.StreamRunner{
					Manager:     m,
					Source:      x,
					WorkflowID:  def.Name,
					MaxResident: 2048,
				}
				makespan = float64(sr.Run())
				completed, peak = m.Completed(), sr.PeakResident()
			}
			b.ReportMetric(makespan, "makespan_s")
			b.ReportMetric(float64(completed), "tasks_completed")
			b.ReportMetric(float64(peak), "peak_resident_tasks")
		}},
		{Name: "RecursiveCompose", Bench: func(b *testing.B) {
			// Recursive workflow-as-node composition end to end: a binary
			// reference tree fan[depth=d] (6*2^d - 2 expanded tasks),
			// resolved cold every iteration — registry compile + edge
			// inference + cycle/depth validation + static splice — then the
			// same root driven lazily through dag.RefExpander on the
			// streaming path. Gates both expansion cost (allocs/op) and
			// exact domain outputs.
			b.ReportAllocs()
			mkReg := func() *compose.Registry {
				reg := compose.NewRegistry()
				reg.MaxDepth = fanDepth + 2
				reg.Register("fan", compose.ParamFunc(func(params map[string]string) (*dag.Workflow, error) {
					d, err := strconv.Atoi(params["depth"])
					if err != nil {
						return nil, err
					}
					w := dag.New("fan")
					w.Add(&dag.Task{ID: "split", Name: "split", NominalDur: 5, OutputBytes: 1e8})
					if d == 0 {
						w.Add(&dag.Task{ID: "w0", Name: "w0", NominalDur: 30,
							Deps: []dag.TaskID{"split"}, OutputBytes: 5e7})
						w.Add(&dag.Task{ID: "w1", Name: "w1", NominalDur: 45,
							Deps: []dag.TaskID{"split"}, OutputBytes: 5e7})
						w.Add(&dag.Task{ID: "join", Name: "join", NominalDur: 10,
							Deps: []dag.TaskID{"w0", "w1"}, OutputBytes: 2e7})
						return w, nil
					}
					next := strconv.Itoa(d - 1)
					for i := 0; i < 2; i++ {
						r := dag.WorkflowRef(dag.TaskID(fmt.Sprintf("sub%d", i)), "fan",
							map[string]string{"depth": next})
						r.Deps = []dag.TaskID{"split"}
						r.InputBytes = 1e7
						w.Add(r)
					}
					w.Add(&dag.Task{ID: "join", Name: "join", NominalDur: 10,
						Deps: []dag.TaskID{"sub0", "sub1"}, OutputBytes: 2e7})
					return w, nil
				}))
				return reg
			}
			var expanded, completed int
			var makespan float64
			for i := 0; i < b.N; i++ {
				reg := mkReg()
				root := dag.New("recursive")
				root.Add(dag.WorkflowRef("fanout", "fan",
					map[string]string{"depth": strconv.Itoa(fanDepth)}))
				w, err := reg.Expand(root)
				if err != nil {
					b.Fatal(err)
				}
				expanded = w.Len()
				x, err := reg.Expander(root)
				if err != nil {
					b.Fatal(err)
				}
				eng := sim.NewEngine()
				cl := cluster.New(eng, "site", cluster.Spec{
					Type:  cluster.NodeType{Name: "node", Cores: 8, MemBytes: 64e9},
					Count: 16,
				})
				m := rm.NewTaskManager(cl, nil)
				sr := &rm.StreamRunner{
					Manager:     m,
					Source:      x,
					WorkflowID:  x.Name(),
					MaxResident: 256,
				}
				makespan = float64(sr.Run())
				completed = m.Completed()
			}
			b.ReportMetric(float64(expanded), "tasks_expanded")
			b.ReportMetric(makespan, "makespan_s")
			b.ReportMetric(float64(completed), "tasks_completed")
		}},
		{Name: "ServiceFairShare", Bench: func(b *testing.B) {
			// The open-system service layer end to end: the contended
			// three-tenant scenario (tightened admission budgets so the
			// reject/defer paths are on the measured path) swept over a seed
			// block under FIFO and fair share with solo baselines. All domain
			// metrics are deterministic virtual-time outputs and gate exactly.
			b.ReportAllocs()
			scen := func(fairShare bool) service.Config {
				cfg := service.ContendedScenario(fairShare)
				cfg.Tenants[0].MaxInFlight = 6
				cfg.Tenants[0].MaxDeferred = 4
				return cfg
			}
			var sw *service.SweepResult
			for i := 0; i < b.N; i++ {
				var err error
				sw, err = service.Sweep(service.SweepConfig{
					Scenario: scen, Seeds: svcSeeds, Seed0: 1, Workers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(5*svcSeeds*b.N)/b.Elapsed().Seconds(), "runs_per_s")
			for _, ta := range sw.Tenants {
				if ta.Strategy == "fairshare" {
					b.ReportMetric(ta.P99Wait.Mean(), "fair_p99_wait_"+ta.Tenant+"_s")
				}
				if ta.Strategy == "fifo" && ta.Tenant == "heavy" {
					b.ReportMetric(ta.RejectionRate.Mean()*100, "fifo_heavy_rej_pct")
					b.ReportMetric(ta.WaitInflation, "fifo_heavy_infl")
				}
			}
			b.ReportMetric(sw.Strategies[1].MaxMinP99Ratio, "fair_maxmin_p99")
		}},
		{Name: "SweepStorm", Bench: func(b *testing.B) {
			// The fault path end to end: the ensemble families on FIFO and
			// CWS-rank under the storm profile, swept on one worker. Node
			// crashes, reclaims, injected failures and retries are all on
			// the measured path; allocs/op gates their bookkeeping, and the
			// work counts (deterministic per seed) gate exactly.
			b.ReportAllocs()
			cfg := stormSweep(stormSeeds)
			var rep *sweep.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = sweep.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var failed, retries, nodes int
			for i := range rep.Runs {
				r := rep.Runs[i].Result
				failed += r.FailedAttempts
				retries += r.Retries
				nodes += r.NodeFailures
			}
			b.ReportMetric(float64(len(rep.Runs)*b.N)/b.Elapsed().Seconds(), "sims_per_s")
			b.ReportMetric(float64(failed), "failed_attempts_per_op")
			b.ReportMetric(float64(retries), "retries_per_op")
			b.ReportMetric(float64(nodes), "node_failures_per_op")
		}},
		{Name: "CWSMakespanCut", Bench: func(b *testing.B) {
			b.ReportAllocs()
			opts := dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4, MeanMem: 2e9}
			// One session per strategy, built once: the loop measures warm
			// runs.
			newSession := func(s cwsi.Strategy) core.RunSession {
				sess, err := (&core.KubernetesEnv{Nodes: 2, CoresPerNode: 8, Strategy: s}).NewSession()
				if err != nil {
					b.Fatal(err)
				}
				return sess
			}
			fifoSess := newSession(nil)
			aware := []core.RunSession{newSession(cwsi.Rank{}), newSession(cwsi.FileSize{})}
			makespan := func(sess core.RunSession, w *dag.Workflow) float64 {
				res, err := sess.RunSeeded(w, nil)
				if err != nil {
					b.Fatal(err)
				}
				return res.MakespanSec
			}
			b.ResetTimer()
			var meanCut float64
			for i := 0; i < b.N; i++ {
				sum, n := 0.0, 0
				for seed := int64(0); seed < int64(cwsSeeds); seed++ {
					w := dag.MontageLike(randx.New(seed*977+1), 16, opts)
					fifo := makespan(fifoSess, w)
					best := fifo
					for _, sess := range aware {
						if ms := makespan(sess, w); ms < best {
							best = ms
						}
					}
					sum += 1 - best/fifo
					n++
				}
				meanCut = sum / float64(n) * 100
			}
			b.ReportMetric(meanCut, "mean_cut_pct")
		}},
	}
}

// Collect runs the given benchmarks in-process via testing.Benchmark and
// assembles a report. logf (optional) narrates progress.
func collect(specs []Spec, short bool, logf func(string, ...any)) (*Report, error) {
	rep := NewReport(short)
	for _, s := range specs {
		if logf != nil {
			logf("bench %s ...", s.Name)
		}
		r := testing.Benchmark(s.Bench)
		if r.N <= 0 {
			return nil, fmt.Errorf("perf: benchmark %s did not run", s.Name)
		}
		bench := Benchmark{
			Name:        s.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: float64(r.MemAllocs) / float64(r.N),
			BytesPerOp:  float64(r.MemBytes) / float64(r.N),
		}
		if len(r.Extra) > 0 {
			bench.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				bench.Extra[k] = v
			}
		}
		if logf != nil {
			logf("bench %s: %d iterations, %.1f ns/op, %.3f allocs/op",
				s.Name, bench.Iterations, bench.NsPerOp, bench.AllocsPerOp)
		}
		rep.Benchmarks = append(rep.Benchmarks, bench)
	}
	if _, err := rep.JSON(); err != nil { // sorts and validates
		return nil, err
	}
	return rep, nil
}

// Collect runs the full tracked suite (reduced workloads when short) and
// returns the populated, validated report.
func Collect(short bool, logf func(string, ...any)) (*Report, error) {
	return collect(Suite(short), short, logf)
}

// stormSweep is the ensemble of SweepStorm: the four workflow families of
// the ensemble benchmark on FIFO and CWS-rank (4×8 cores) under
// fault.Storm(), seeds 1..seeds, on one worker.
func stormSweep(seeds int) sweep.Config {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	storm := fault.Storm()
	return sweep.Config{
		Workflows: []sweep.WorkflowSpec{
			{Name: "montage-16", Gen: func(r *randx.Source) *dag.Workflow { return dag.MontageLike(r, 16, opts) }},
			{Name: "epigenomics-6x5", Gen: func(r *randx.Source) *dag.Workflow { return dag.EpigenomicsLike(r, 6, 5, opts) }},
			{Name: "forkjoin-3x12", Gen: func(r *randx.Source) *dag.Workflow { return dag.ForkJoin(r, 3, 12, opts) }},
			{Name: "rnaseq-12", Gen: func(r *randx.Source) *dag.Workflow { return dag.RNASeqLike(r, 12, opts) }},
		},
		Envs: []sweep.EnvSpec{
			{Name: "fifo", New: func() core.Environment {
				return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: storm}
			}},
			{Name: "cws-rank", New: func() core.Environment {
				return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}, Faults: storm}
			}},
		},
		Seeds:   sweep.Seeds(1, seeds),
		Workers: 1,
	}
}
