package hhcw_test

// Ablation benchmarks for the design choices DESIGN.md §6 calls out:
// strategy family, predictor choice, EnTK resubmission, the Airflow
// big-worker strategy, JAWS call caching, and the fair-share cap sweep.

import (
	"fmt"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/entk"
	"hhcw/internal/exaam"
	"hhcw/internal/jaws"
	"hhcw/internal/predict"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
	"hhcw/internal/storage"
	"hhcw/internal/sweep"
)

// BenchmarkAblation_Strategies compares every scheduling strategy on the
// same heterogeneous cluster and workflow.
func BenchmarkAblation_Strategies(b *testing.B) {
	strategies := map[string]cwsi.Strategy{
		"fifo":     cwsi.Baseline{},
		"rank":     cwsi.Rank{},
		"filesize": cwsi.FileSize{},
		"heft":     cwsi.HEFT{},
		"tarema":   cwsi.Tarema{},
	}
	for name, strat := range strategies {
		strat := strat
		b.Run(name, func(b *testing.B) {
			sess, err := (&core.KubernetesEnv{Nodes: 2, Heterogeneous: true, Strategy: strat}).NewSession()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var makespan float64
			for i := 0; i < b.N; i++ {
				w := dag.RandomLayered(randx.New(42), 6, 10,
					dag.GenOpts{MeanDur: 300, CVDur: 1.0, Cores: 1, MaxCores: 4, MeanMem: 2e9})
				res, err := sess.RunSeeded(w, nil)
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.MakespanSec
			}
			b.ReportMetric(makespan, "makespan_s")
		})
	}
}

// BenchmarkAblation_Predictors measures runtime-prediction error (mean
// relative error) per predictor after training on one workflow's provenance
// and predicting a second workflow — the §3.4 pipeline.
func BenchmarkAblation_Predictors(b *testing.B) {
	predictors := map[string]func() predict.RuntimePredictor{
		"mean":       func() predict.RuntimePredictor { return predict.NewMean() },
		"regression": func() predict.RuntimePredictor { return predict.NewRegression() },
		"lotaru":     func() predict.RuntimePredictor { return predict.NewLotaru() },
	}
	for name, mk := range predictors {
		mk := mk
		b.Run(name, func(b *testing.B) {
			var mre float64
			for i := 0; i < b.N; i++ {
				p := mk()
				// Train on observed executions of one workflow.
				train := dag.RNASeqLike(randx.New(1), 30, dag.GenOpts{MeanDur: 300, CVDur: 0.4})
				for _, t := range train.Tasks() {
					p.Observe(predict.Observation{
						TaskName: t.Name, InputBytes: t.InputBytes,
						RuntimeSec: t.NominalDur, SpeedFactor: 1,
					})
				}
				// Evaluate on a fresh workflow of the same processes.
				test := dag.RNASeqLike(randx.New(2), 30, dag.GenOpts{MeanDur: 300, CVDur: 0.4})
				var errs predict.Errors
				for _, t := range test.Tasks() {
					if got, ok := p.Predict(t.Name, t.InputBytes, 1); ok {
						errs.Observe(got, t.NominalDur)
					}
				}
				mre = errs.MRE() * 100
			}
			b.ReportMetric(mre, "mre_pct")
		})
	}
}

// BenchmarkAblation_PredictionLoop runs the closed §3.4 loop — predictors
// trained online from provenance as attempts complete, feeding priority,
// placement, and backfill — over predictor × workflow family on a contended
// heterogeneous cluster. Each sub-benchmark reports the predicted run's
// mean makespan cut vs the predictor-off baseline and the realized mean
// relative prediction error; `sweeprun -predict` renders the same table
// over larger seed ensembles.
func BenchmarkAblation_PredictionLoop(b *testing.B) {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	families := []sweep.WorkflowSpec{
		{Name: "montage-16", Gen: func(r *randx.Source) *dag.Workflow { return dag.MontageLike(r, 16, opts) }},
		{Name: "epigenomics-6x5", Gen: func(r *randx.Source) *dag.Workflow { return dag.EpigenomicsLike(r, 6, 5, opts) }},
		{Name: "forkjoin-3x12", Gen: func(r *randx.Source) *dag.Workflow { return dag.ForkJoin(r, 3, 12, opts) }},
		{Name: "rnaseq-12", Gen: func(r *randx.Source) *dag.Workflow { return dag.RNASeqLike(r, 12, opts) }},
	}
	mkEnv := func(predictor string) func() core.Environment {
		return func() core.Environment {
			return &core.KubernetesEnv{Nodes: 2, Heterogeneous: true, Strategy: cwsi.Baseline{}, Predict: predictor}
		}
	}
	for _, fam := range families {
		fam := fam
		for _, predictor := range []string{"mean", "regression", "lotaru"} {
			predictor := predictor
			b.Run(fam.Name+"/"+predictor, func(b *testing.B) {
				var cell *sweep.Cell
				for i := 0; i < b.N; i++ {
					rep, err := sweep.Run(sweep.Config{
						Workflows: []sweep.WorkflowSpec{fam},
						Envs: []sweep.EnvSpec{
							{Name: "off", New: mkEnv("off")},
							{Name: predictor, New: mkEnv(predictor)},
						},
						Seeds:    sweep.Seeds(13, 5),
						Baseline: "off",
					})
					if err != nil {
						b.Fatal(err)
					}
					cell = &rep.Cells[1]
				}
				b.ReportMetric(cell.Makespan.Median, "median_makespan_s")
				b.ReportMetric(cell.CutMeanPct, "cut_mean_pct")
				b.ReportMetric(cell.PredMREPct.Mean(), "mre_pct")
				b.ReportMetric(cell.PredSamples.Median, "pred_samples")
			})
		}
	}
}

// BenchmarkAblation_EnTKResubmission compares ensemble completion with and
// without the consecutive-job resubmission the ExaAM applications added.
func BenchmarkAblation_EnTKResubmission(b *testing.B) {
	for _, rounds := range []int{0, 1} {
		rounds := rounds
		b.Run(fmt.Sprintf("resubmit=%d", rounds), func(b *testing.B) {
			var completed float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				cl := cluster.Frontier(eng, 64)
				bm := rm.NewBatchManager(cl, nil)
				cfg := exaam.Config{GridDim: 2, GridLevel: 1, MeltPoolCases: 4, MicroParams: 2,
					LoadingDirections: 3, Temperatures: 2, RVEs: 1, Seed: 5,
					TransientFailures: 6}
				am := entk.NewAppManager(cl, bm, entk.FrontierResource(64, 12*3600))
				am.MaxResubmitRounds = rounds
				rep, err := am.Run(exaam.Stage3Pipeline(cfg))
				if err != nil {
					b.Fatal(err)
				}
				completed = float64(rep.TasksExecuted) / float64(cfg.PropertyTasks()) * 100
			}
			b.ReportMetric(completed, "completed_pct")
		})
	}
}

// BenchmarkAblation_BigWorkerWaste quantifies §3.2's Airflow big-worker
// anti-pattern against CWSI pods on a fork-join workflow with merge points.
func BenchmarkAblation_BigWorkerWaste(b *testing.B) {
	mkCl := func() *cluster.Cluster {
		return cluster.New(sim.NewEngine(), "k8s", cluster.Spec{
			Type:  cluster.NodeType{Name: "n", Cores: 8, MemBytes: 64e9},
			Count: 6,
		})
	}
	mkWf := func() *dag.Workflow {
		return dag.ForkJoin(randx.New(9), 3, 12, dag.GenOpts{MeanDur: 300, CVDur: 0.8})
	}
	b.Run("bigworker", func(b *testing.B) {
		var waste float64
		for i := 0; i < b.N; i++ {
			res, err := cwsi.RunAirflowBigWorker(mkCl(), mkWf())
			if err != nil {
				b.Fatal(err)
			}
			waste = res.Waste() * 100
		}
		b.ReportMetric(waste, "waste_pct")
	})
	b.Run("cwsi-pods", func(b *testing.B) {
		sess, err := (&core.KubernetesEnv{Nodes: 6, CoresPerNode: 8, Strategy: cwsi.Rank{}}).NewSession()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var waste float64
		for i := 0; i < b.N; i++ {
			w := mkWf()
			if _, err := sess.RunSeeded(w, nil); err != nil {
				b.Fatal(err)
			}
			// Pods request exactly the task shapes for the task durations.
			used := 0.0
			for _, t := range w.Tasks() {
				used += t.CPUSeconds()
			}
			waste = cwsi.RunResult{RequestedCoreSec: used, UsedCoreSec: used}.Waste() * 100
		}
		b.ReportMetric(waste, "waste_pct")
	})
}

// BenchmarkAblation_CallCaching compares a JAWS resubmission with and
// without call caching.
func BenchmarkAblation_CallCaching(b *testing.B) {
	const text = `
workflow asm
container docker://jgi/x@sha256:aa
task filter dur=10m overhead=1m
task align dur=30m overhead=1m after=filter scatter=24
task merge dur=5m overhead=1m after=align
`
	for _, caching := range []bool{false, true} {
		caching := caching
		b.Run(fmt.Sprintf("caching=%v", caching), func(b *testing.B) {
			var rerun float64
			for i := 0; i < b.N; i++ {
				def, err := jaws.Parse(text)
				if err != nil {
					b.Fatal(err)
				}
				eng := sim.NewEngine()
				cl := cluster.New(eng, "s", cluster.Spec{
					Type:  cluster.NodeType{Name: "n", Cores: 16, MemBytes: 256e9},
					Count: 4,
				})
				e := jaws.NewEngine(cl, storage.NewStore("fs", 0, 0, 0))
				e.CallCaching = caching
				if _, err := e.Run(def, "u"); err != nil {
					b.Fatal(err)
				}
				rep, err := e.Run(def, "u")
				if err != nil {
					b.Fatal(err)
				}
				rerun = float64(rep.Makespan)
			}
			b.ReportMetric(rerun, "rerun_makespan_s")
		})
	}
}

// BenchmarkAblation_MemoryPrediction compares makespan on a memory-
// constrained cluster with user-declared (inflated) requests vs CWS
// memory right-sizing (§3.4/§6.1 resource prediction).
func BenchmarkAblation_MemoryPrediction(b *testing.B) {
	mkWorkflow := func() *dag.Workflow {
		w := dag.New("mem")
		for i := 0; i < 32; i++ {
			w.Add(&dag.Task{
				ID:   dag.TaskID(fmt.Sprintf("t%02d", i)),
				Name: "hungry", NominalDur: 100,
				MemBytes: 16e9, PeakMemBytes: 4e9, // 4× over-request
			})
		}
		return w
	}
	mkCluster := func() *cluster.Cluster {
		return cluster.New(sim.NewEngine(), "mem", cluster.Spec{
			Type:  cluster.NodeType{Name: "n", Cores: 64, MemBytes: 64e9},
			Count: 1,
		})
	}
	for _, predicted := range []bool{false, true} {
		predicted := predicted
		b.Run(fmt.Sprintf("mempred=%v", predicted), func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				mgr := rm.NewTaskManager(mkCluster(), nil)
				cws := cwsi.New(mgr, cwsi.Baseline{}, nil)
				if predicted {
					mp := predict.NewMem(0.2)
					mp.Observe(predict.Observation{TaskName: "hungry", PeakMem: 4e9})
					cws.SetMemPredictor(mp)
				}
				w := mkWorkflow()
				if err := cws.RegisterWorkflow("w", w); err != nil {
					b.Fatal(err)
				}
				ms, err := runCWS(cws, mgr, "w", w, 1)
				if err != nil {
					b.Fatal(err)
				}
				makespan = float64(ms)
			}
			b.ReportMetric(makespan, "makespan_s")
		})
	}
}

// BenchmarkAblation_FairShareCap sweeps the per-user concurrency cap and
// reports the small user's makespan alongside the flood user's.
func BenchmarkAblation_FairShareCap(b *testing.B) {
	for _, cap := range []int{0, 2, 4, 8} {
		cap := cap
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			var smallMs, hogMs float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				cl := cluster.New(eng, "shared", cluster.Spec{
					Type:  cluster.NodeType{Name: "n", Cores: 4, MemBytes: 64e9},
					Count: 2,
				})
				e := jaws.NewEngine(cl, storage.NewStore("fs", 0, 0, 0))
				e.MaxConcurrentPerUser = cap
				flood, _ := jaws.Parse("workflow flood\ntask f dur=300s overhead=0s scatter=64")
				small, _ := jaws.Parse("workflow small\ntask q dur=60s overhead=0s")
				fr, frun, err := e.Start(flood, "hog")
				if err != nil {
					b.Fatal(err)
				}
				sr, srun, err := e.Start(small, "alice")
				if err != nil {
					b.Fatal(err)
				}
				eng.Run()
				if frun.Err() != nil || srun.Err() != nil {
					b.Fatal("stalled")
				}
				smallMs = float64(sr.Makespan)
				hogMs = float64(fr.Makespan)
			}
			b.ReportMetric(smallMs, "small_user_s")
			b.ReportMetric(hogMs, "hog_user_s")
		})
	}
}
