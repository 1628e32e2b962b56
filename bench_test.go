package hhcw_test

// One benchmark per table/figure of the paper's evaluation (see DESIGN.md's
// experiment index and EXPERIMENTS.md for paper-vs-measured values). The
// benchmarks run entire experiments per iteration and attach the reproduced
// quantities as custom metrics, so `go test -bench=. -benchmem` regenerates
// the paper's numbers in one sweep.

import (
	"fmt"
	"runtime"
	"testing"

	"hhcw/internal/atlas"
	"hhcw/internal/cloud"
	"hhcw/internal/cluster"
	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/entk"
	"hhcw/internal/exaam"
	"hhcw/internal/futures"
	"hhcw/internal/jaws"
	"hhcw/internal/llmwf"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
	"hhcw/internal/storage"
	"hhcw/internal/sweep"
)

// BenchmarkFig1_LLMAgentLoop reproduces §2/Fig 1: the planner-executor-
// debugger loop composing and executing Phyloflow with a flaky model.
// Paper-reported behaviour: the prototype cannot recover from wrong calls;
// the agent engine can. Metrics: recovered wrong calls and token cost.
func BenchmarkFig1_LLMAgentLoop(b *testing.B) {
	var recovered, tokens float64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		exec := futures.NewExecutor(eng)
		specs := llmwf.RegisterPhyloflow(exec, "")
		llm := llmwf.NewMockLLM(llmwf.PhyloflowTemplate)
		llm.WrongCallEvery = 2
		agentEng := &llmwf.AgentEngine{Eng: eng, Exec: exec, LLM: llm, Specs: specs, MaxDebugAttempts: 2}
		rep, err := agentEng.Execute("run the phylogenetic analysis on sample.vcf")
		if err != nil {
			b.Fatal(err)
		}
		if rep.Steps != 4 {
			b.Fatalf("steps = %d", rep.Steps)
		}
		recovered = float64(rep.Recovered)
		tokens = float64(rep.SentTokens)
	}
	b.ReportMetric(recovered, "recovered_calls")
	b.ReportMetric(tokens, "tokens_sent")
}

// BenchmarkFig2_CWSIRoundTrip reproduces §3/Fig 2: the CWSI protocol —
// workflow registration, per-task submission with dependencies, scheduling
// inside the resource manager, provenance capture.
func BenchmarkFig2_CWSIRoundTrip(b *testing.B) {
	sess, err := (&core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}}).NewSession()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var records float64
	for i := 0; i < b.N; i++ {
		w := dag.MontageLike(randx.New(7), 12, dag.GenOpts{MeanDur: 120})
		res, err := sess.RunSeeded(w, nil)
		if err != nil {
			b.Fatal(err)
		}
		records = float64(res.Provenance.(*provenance.Store).Len())
	}
	b.ReportMetric(records, "prov_records")
}

// BenchmarkClaim_CWSIMakespan reproduces the §3.5 claim: simple workflow-
// aware strategies reduce makespan vs FIFO (paper: 10.8 % average, up to
// 25 %). Metrics: mean and max reduction over the workload sweep.
func BenchmarkClaim_CWSIMakespan(b *testing.B) {
	// One session per strategy, built once, runs every workload and seed.
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
	var meanCut, maxCut float64
	for i := 0; i < b.N; i++ {
		opts := dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4, MeanMem: 2e9}
		gens := []func(r *randx.Source) *dag.Workflow{
			func(r *randx.Source) *dag.Workflow { return dag.MontageLike(r, 16, opts) },
			func(r *randx.Source) *dag.Workflow { return dag.ForkJoin(r, 3, 12, opts) },
			func(r *randx.Source) *dag.Workflow { return dag.RNASeqLike(r, 12, opts) },
		}
		sum, max, n := 0.0, 0.0, 0
		for gi, gen := range gens {
			for seed := int64(0); seed < 4; seed++ {
				w := gen(randx.New(seed*977 + int64(gi)))
				fifo := makespan(fifoSess, w)
				best := fifo
				for _, sess := range aware {
					if ms := makespan(sess, w); ms < best {
						best = ms
					}
				}
				cut := 1 - best/fifo
				sum += cut
				n++
				if cut > max {
					max = cut
				}
			}
		}
		meanCut, maxCut = sum/float64(n)*100, max*100
	}
	b.ReportMetric(meanCut, "mean_reduction_pct")
	b.ReportMetric(maxCut, "max_reduction_pct")
}

// BenchmarkFig3_UQPipeline reproduces §4/Fig 3: the full three-stage ExaAM
// UQ pipeline (grid → AdditiveFOAM/ExaCA → ExaConstit → optimize) as chained
// EnTK applications, at reduced scale.
func BenchmarkFig3_UQPipeline(b *testing.B) {
	var tasks float64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		cl := cluster.Frontier(eng, 128)
		bm := rm.NewBatchManager(cl, nil)
		cfg := exaam.Config{GridDim: 2, GridLevel: 1, MeltPoolCases: 4, MicroParams: 2,
			LoadingDirections: 2, Temperatures: 1, RVEs: 1, Seed: 3}
		res, err := exaam.RunFull(cl, bm, cfg, 128)
		if err != nil {
			b.Fatal(err)
		}
		tasks = float64(res.TotalExecuted())
	}
	b.ReportMetric(tasks, "tasks_executed")
}

// BenchmarkFig4_EnTKUtilization reproduces Fig 4 at full scale: 7875
// ExaConstit tasks on 8000 simulated Frontier nodes. Paper: OVH 85 s, TTX
// 7989 s, job 8074 s, utilization ~90 %.
func BenchmarkFig4_EnTKUtilization(b *testing.B) {
	var util, ovh, ttx float64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		cl := cluster.Frontier(eng, 8000)
		bm := rm.NewBatchManager(cl, rm.FrontierPolicy)
		cfg := exaam.FrontierConfig()
		am := entk.NewAppManager(cl, bm, entk.FrontierResource(8000, 12*3600))
		am.Policy = rm.FrontierPolicy
		rep, err := am.Run(exaam.Stage3Pipeline(cfg))
		if err != nil {
			b.Fatal(err)
		}
		if rep.TasksExecuted != 7875 {
			b.Fatalf("executed %d of 7875", rep.TasksExecuted)
		}
		util = rep.Utilization * 100
		ovh = float64(rep.Overhead)
		ttx = float64(rep.TTX)
	}
	b.ReportMetric(util, "util_pct")
	b.ReportMetric(ovh, "ovh_s")
	b.ReportMetric(ttx, "ttx_s")
}

// BenchmarkFig5_TaskConcurrency reproduces Fig 5: the agent's scheduling and
// launching throughput and the failure/resubmission counts. Paper: 269
// tasks/s scheduling, 51 tasks/s launching, 10 failures of which 8 recovered
// by resubmission.
func BenchmarkFig5_TaskConcurrency(b *testing.B) {
	var sched, launch, resubOK, failed float64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		cl := cluster.Frontier(eng, 8000)
		bm := rm.NewBatchManager(cl, rm.FrontierPolicy)
		cfg := exaam.FrontierConfig()
		cfg.TransientFailures = 8
		cfg.PersistentFailures = 2
		am := entk.NewAppManager(cl, bm, entk.FrontierResource(8000, 12*3600))
		am.Policy = rm.FrontierPolicy
		rep, err := am.Run(exaam.Stage3Pipeline(cfg))
		if err != nil {
			b.Fatal(err)
		}
		sched = rep.MeasuredSchedRate
		launch = rep.MeasuredLaunchRate
		resubOK = float64(rep.ResubmittedOK)
		failed = float64(rep.TasksFailed)
	}
	b.ReportMetric(sched, "sched_tasks_per_s")
	b.ReportMetric(launch, "launch_tasks_per_s")
	b.ReportMetric(resubOK, "resubmitted_ok")
	b.ReportMetric(failed, "terminal_failures")
}

// BenchmarkTable1_AtlasStepMetrics reproduces Table 1: per-step instance-
// wide metrics of the Salmon pipeline on the cloud over 99 files. Metrics:
// salmon CPU mean (paper 94 %), fasterq iowait mean (paper 26 %), salmon
// peak RSS (paper 2.8 GB).
func BenchmarkTable1_AtlasStepMetrics(b *testing.B) {
	var salmonCPU, fasterqIO, salmonRSS float64
	for i := 0; i < b.N; i++ {
		rng := randx.New(7)
		catalog := atlas.GenerateCatalog(rng.Fork(), 99)
		rep, err := atlas.RunCloud(sim.NewEngine(), rng.Fork(), catalog, 8, cloud.T3Medium)
		if err != nil {
			b.Fatal(err)
		}
		salmonCPU = rep.StepStats[atlas.Salmon].Proc.CPU.Mean()
		fasterqIO = rep.StepStats[atlas.FasterqDump].Proc.IOWait.Mean()
		salmonRSS = rep.StepStats[atlas.Salmon].Proc.RSS.Max() / 1e9
	}
	b.ReportMetric(salmonCPU, "salmon_cpu_pct")
	b.ReportMetric(fasterqIO, "fasterq_iowait_pct")
	b.ReportMetric(salmonRSS, "salmon_rss_gb")
}

// BenchmarkTable2_CloudVsHPC reproduces Table 2: per-step cloud-vs-HPC
// execution-time comparison plus the end-to-end numbers (paper: cloud 2.7 h,
// HPC 2.5 h, HPC job efficiency 72 %; prefetch much slower on HPC, fasterq
// 30 % and salmon 19 % faster on HPC).
func BenchmarkTable2_CloudVsHPC(b *testing.B) {
	var prefetchSlow, salmonFast, hpcEff, cloudH, hpcH float64
	for i := 0; i < b.N; i++ {
		rng := randx.New(7)
		catalog := atlas.GenerateCatalog(rng.Fork(), 99)
		cloudRep, err := atlas.RunCloud(sim.NewEngine(), rng.Fork(), catalog, 8, cloud.T3Medium)
		if err != nil {
			b.Fatal(err)
		}
		hpcEng := sim.NewEngine()
		ares := cluster.New(hpcEng, "ares", cluster.Spec{
			Type:  cluster.NodeType{Name: "ares", Cores: 48, MemBytes: 192e9},
			Count: 4,
		})
		hpcRep, err := atlas.RunHPC(hpcEng, rng.Fork(), catalog, ares, 8, 120)
		if err != nil {
			b.Fatal(err)
		}
		rows := atlas.Compare(cloudRep, hpcRep)
		prefetchSlow = rows[atlas.Prefetch].HPCRelativeSlowdown * 100
		salmonFast = -rows[atlas.Salmon].HPCRelativeSlowdown * 100
		hpcEff = hpcRep.Efficiency * 100
		cloudH = cloudRep.Makespan / 3600
		hpcH = hpcRep.Makespan / 3600
	}
	b.ReportMetric(prefetchSlow, "prefetch_hpc_slower_pct")
	b.ReportMetric(salmonFast, "salmon_hpc_faster_pct")
	b.ReportMetric(hpcEff, "hpc_efficiency_pct")
	b.ReportMetric(cloudH, "cloud_hours")
	b.ReportMetric(hpcH, "hpc_hours")
}

// BenchmarkSweep measures the parallel multi-seed ensemble runner on a
// 200-seed montage sweep at increasing worker counts. On a multi-core
// machine the sub-benchmarks show near-linear wall-clock scaling from
// -workers 1 to NumCPU (the 4-worker run should be ≥ 2× the 1-worker run);
// the aggregate report is bit-identical at every width, which
// internal/sweep's determinism tests assert separately.
func BenchmarkSweep(b *testing.B) {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	cfg := sweep.Config{
		Workflows: []sweep.WorkflowSpec{{
			Name: "montage-16",
			Gen:  func(r *randx.Source) *dag.Workflow { return dag.MontageLike(r, 16, opts) },
		}},
		Envs: []sweep.EnvSpec{{
			Name: "k8s-cws",
			New: func() core.Environment {
				return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}}
			},
		}},
		Seeds: sweep.Seeds(1, 200),
	}
	widths := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var median float64
			for i := 0; i < b.N; i++ {
				cfg.Workers = w
				rep, err := sweep.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				median = rep.Cells[0].Makespan.Median
			}
			b.ReportMetric(median, "median_makespan_s")
			b.ReportMetric(float64(200*b.N)/b.Elapsed().Seconds(), "sims_per_s")
		})
	}
}

// BenchmarkClaim_JAWSFusion reproduces the §6.1 claim: fusing four
// overhead-dominated tasks cuts execution time ~70 % and shards ~71 %.
func BenchmarkClaim_JAWSFusion(b *testing.B) {
	const text = `
workflow jgi
container docker://jgi/x@sha256:aa
task setup dur=60s overhead=30s
task s1 dur=25s overhead=400s after=setup scatter=24
task s2 dur=25s overhead=400s after=s1 scatter=24
task s3 dur=25s overhead=400s after=s2 scatter=24
task s4 dur=25s overhead=400s after=s3 scatter=24
task final dur=60s overhead=30s after=s4
`
	var timeCut, shardCut float64
	for i := 0; i < b.N; i++ {
		def, err := jaws.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		fused, err := jaws.Fuse(def, []string{"s1", "s2", "s3", "s4"})
		if err != nil {
			b.Fatal(err)
		}
		run := func(d *jaws.WorkflowDef) *jaws.RunReport {
			eng := sim.NewEngine()
			cl := cluster.New(eng, "s", cluster.Spec{
				Type:  cluster.NodeType{Name: "n", Cores: 16, MemBytes: 256e9},
				Count: 4,
			})
			rep, err := jaws.NewEngine(cl, storage.NewStore("fs", 0, 0, 0)).Run(d, "u")
			if err != nil {
				b.Fatal(err)
			}
			return rep
		}
		orig := run(def)
		opt := run(fused)
		timeCut = (1 - opt.TaskSeconds/orig.TaskSeconds) * 100
		shardCut = (1 - float64(opt.ShardsExecuted)/float64(orig.ShardsExecuted)) * 100
	}
	b.ReportMetric(timeCut, "time_cut_pct")
	b.ReportMetric(shardCut, "shard_cut_pct")
}

// BenchmarkClaim_FairShare reproduces the §6.2 anti-pattern: without
// per-user caps a highly parallel scatter monopolizes the shared engine;
// with a cap the small user's makespan collapses.
func BenchmarkClaim_FairShare(b *testing.B) {
	var uncapped, capped float64
	for i := 0; i < b.N; i++ {
		run := func(cap int) float64 {
			eng := sim.NewEngine()
			cl := cluster.New(eng, "shared", cluster.Spec{
				Type:  cluster.NodeType{Name: "n", Cores: 4, MemBytes: 64e9},
				Count: 2,
			})
			e := jaws.NewEngine(cl, storage.NewStore("fs", 0, 0, 0))
			e.MaxConcurrentPerUser = cap
			flood, err := jaws.Parse("workflow flood\ntask f dur=300s overhead=0s scatter=64")
			if err != nil {
				b.Fatal(err)
			}
			small, err := jaws.Parse("workflow small\ntask q dur=60s overhead=0s")
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := e.Start(flood, "hog"); err != nil {
				b.Fatal(err)
			}
			rep, run, err := e.Start(small, "alice")
			if err != nil {
				b.Fatal(err)
			}
			eng.Run()
			if err := run.Err(); err != nil {
				b.Fatal(err)
			}
			return float64(rep.Makespan)
		}
		uncapped = run(0)
		capped = run(4)
	}
	b.ReportMetric(uncapped, "small_user_uncapped_s")
	b.ReportMetric(capped, "small_user_capped_s")
}
