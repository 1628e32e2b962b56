// Command cwsbench reproduces the §3 Common Workflow Scheduler evaluation:
// the same workflows run on identical simulated clusters under the
// workflow-oblivious FIFO baseline and the CWSI-enabled strategies (rank,
// file size, HEFT, Tarema-like). The paper reports an average makespan
// reduction of 10.8 % with simple strategies and up to 25 %.
//
// Usage:
//
//	cwsbench [-seeds 5] [-nodes 6] [-cores 8] [-waste] [-json]
package main

import (
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/compose"
	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/driver"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

type workloadGen struct {
	name string
	gen  func(rng *randx.Source) *dag.Workflow
}

func workloads() []workloadGen {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 1.0, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	return []workloadGen{
		{"montage-16", func(r *randx.Source) *dag.Workflow { return dag.MontageLike(r, 16, opts) }},
		{"epigenomics-6x5", func(r *randx.Source) *dag.Workflow { return dag.EpigenomicsLike(r, 6, 5, opts) }},
		{"forkjoin-3x12", func(r *randx.Source) *dag.Workflow { return dag.ForkJoin(r, 3, 12, opts) }},
		{"layered-6x10", func(r *randx.Source) *dag.Workflow { return dag.RandomLayered(r, 6, 10, opts) }},
		{"rnaseq-20", func(r *randx.Source) *dag.Workflow { return dag.RNASeqLike(r, 20, opts) }},
	}
}

func main() {
	app := driver.New("cwsbench", "cwsbench [-seeds 5] [-nodes 6] [-cores 8] [-waste] [-json]")
	seeds := app.Int("seeds", 5, "repetitions per workload")
	nodes := app.Int("nodes", 6, "cluster nodes")
	cores := app.Int("cores", 8, "cores per node")
	waste := app.Bool("waste", false, "also run the Airflow big-worker waste comparison")
	app.NoFaults()
	app.Parse()
	for _, f := range []struct {
		name string
		v    int
	}{{"seeds", *seeds}, {"nodes", *nodes}, {"cores", *cores}} {
		if f.v < 1 {
			app.Usagef("-%s must be at least 1, got %d", f.name, f.v)
		}
	}
	rep := app.NewReport()

	strategies := []cwsi.Strategy{cwsi.Rank{}, cwsi.FileSize{}}
	stratNames := []string{"fifo", "rank", "filesize-desc"}

	s1 := rep.Section("§3.5 claim: makespan on a contended cluster, aware strategies vs FIFO")
	header := fmt.Sprintf("%-18s %-8s", "workload", "seed")
	for _, n := range stratNames {
		header += fmt.Sprintf(" %12s", n)
	}
	s1.Addf("%s %10s", header, "simple cut")

	// Two flat nodes: enough contention that submission order matters, the
	// regime the CWS evaluation targets. One session per strategy runs every
	// workload and seed.
	fifoFlat := newSession(app, &core.KubernetesEnv{Nodes: 2, CoresPerNode: *cores})
	var aware []core.RunSession
	for _, s := range strategies {
		aware = append(aware, newSession(app, &core.KubernetesEnv{Nodes: 2, CoresPerNode: *cores, Strategy: s}))
	}
	var cuts, heftCuts []float64
	maxCut := 0.0
	for _, wl := range workloads() {
		for seed := int64(0); seed < int64(*seeds); seed++ {
			w := wl.gen(randx.New(seed*977 + 13))
			fifo := makespan(app, fifoFlat, w)
			line := fmt.Sprintf("%-18s %-8d %11.0fs", wl.name, seed, fifo)
			bestSimple := fifo
			for _, sess := range aware {
				ms := makespan(app, sess, w)
				line += fmt.Sprintf(" %11.0fs", ms)
				if ms < bestSimple {
					bestSimple = ms
				}
			}
			cut := 1 - bestSimple/fifo
			cuts = append(cuts, cut)
			if cut > maxCut {
				maxCut = cut
			}
			s1.Addf("%s %9.1f%%", line, cut*100)
		}
	}
	// Scenario 2: concurrent workflows sharing the cluster — the
	// multi-tenant setting where the resource manager sees interleaved
	// tasks from many DAGs.
	s2 := rep.Section("concurrent workflows on one shared cluster")
	for seed := int64(0); seed < int64(*seeds); seed++ {
		mkCl := func() *cluster.Cluster {
			return cluster.New(sim.NewEngine(), "flat", cluster.Spec{
				Type:  cluster.NodeType{Name: "n", Cores: *cores, MemBytes: 64e9},
				Count: *nodes,
			})
		}
		mkWfs := func() []*dag.Workflow {
			r := randx.New(seed*31 + 7)
			o := dag.GenOpts{MeanDur: 300, CVDur: 1.2, Cores: 1, MaxCores: 4, MeanMem: 2e9}
			return []*dag.Workflow{
				dag.MontageLike(r.Fork(), 16, o),
				dag.EpigenomicsLike(r.Fork(), 6, 5, o),
				dag.ForkJoin(r.Fork(), 3, 12, o),
				dag.RNASeqLike(r.Fork(), 10, o),
				dag.RandomLayered(r.Fork(), 6, 8, o),
			}
		}
		base, err := cwsi.RunConcurrent(mkCl(), mkWfs(), nil)
		app.Check(err)
		best := float64(base.MeanMakespan)
		bestName := "fifo"
		for _, s := range strategies {
			r, err := cwsi.RunConcurrent(mkCl(), mkWfs(), s)
			app.Check(err)
			if float64(r.MeanMakespan) < best {
				best = float64(r.MeanMakespan)
				bestName = s.Name()
			}
		}
		cut := 1 - best/float64(base.MeanMakespan)
		cuts = append(cuts, cut)
		if cut > maxCut {
			maxCut = cut
		}
		s2.Addf("seed %d: fifo mean %6.0fs, best %s %6.0fs, cut %.1f%%",
			seed, float64(base.MeanMakespan), bestName, best, cut*100)
	}

	// Scenario 3: §3.4's heterogeneity-aware extension — HEFT with runtime
	// knowledge on a cluster of mixed node speeds.
	s3 := rep.Section("heterogeneous cluster: HEFT (advanced, §3.4) vs FIFO")
	fifoHet := newSession(app, &core.KubernetesEnv{Nodes: 2, Heterogeneous: true})
	heft := newSession(app, &core.KubernetesEnv{Nodes: 2, Heterogeneous: true, Strategy: cwsi.HEFT{}})
	for seed := int64(0); seed < int64(*seeds); seed++ {
		w := dag.RandomLayered(randx.New(seed*131+5), 6, 10,
			dag.GenOpts{MeanDur: 300, CVDur: 1.0, Cores: 1, MaxCores: 4, MeanMem: 2e9})
		fifo, ms := makespan(app, fifoHet, w), makespan(app, heft, w)
		cut := 1 - ms/fifo
		heftCuts = append(heftCuts, cut)
		s3.Addf("seed %d: fifo %6.0fs, heft %6.0fs, cut %.1f%%", seed, fifo, ms, cut*100)
	}

	mean := 0.0
	for _, c := range cuts {
		mean += c
	}
	mean /= float64(len(cuts))
	heftMean := 0.0
	for _, c := range heftCuts {
		heftMean += c
	}
	if len(heftCuts) > 0 {
		heftMean /= float64(len(heftCuts))
	}
	hl := rep.Section("")
	hl.Addf("simple strategies (rank, file size), average reduction: %.1f%%  (paper: 10.8%%)", mean*100)
	hl.Addf("simple strategies, maximum reduction:                   %.1f%%  (paper: up to 25%%)", maxCut*100)
	hl.Addf("advanced (HEFT, §3.4 heterogeneity-aware), average:     %.1f%%", heftMean*100)
	hl.Set("cut_mean_pct", mean*100)
	hl.Set("cut_max_pct", maxCut*100)
	hl.Set("heft_cut_mean_pct", heftMean*100)

	if *waste {
		ws := rep.Section("§3.2: Airflow big-worker vs CWSI pods (resource waste at merge points)")
		rngSeed := int64(42)
		wfGen := func() *dag.Workflow {
			return dag.ForkJoin(randx.New(rngSeed), 3, 12, dag.GenOpts{MeanDur: 300, CVDur: 0.8})
		}
		mk := func() *cluster.Cluster {
			return cluster.New(sim.NewEngine(), "k8s", cluster.Spec{
				Type:  cluster.NodeType{Name: "n", Cores: *cores, MemBytes: 64e9},
				Count: *nodes,
			})
		}
		big, err := cwsi.RunAirflowBigWorker(mk(), wfGen())
		app.Check(err)
		// CWSI pods request exactly the task shapes for the task durations,
		// so the reserved core-seconds are the used ones.
		w := wfGen()
		res, err := core.Run(&core.KubernetesEnv{Nodes: *nodes, CoresPerNode: *cores, Strategy: cwsi.Rank{}}, w, nil)
		app.Check(err)
		used := 0.0
		for _, t := range w.Tasks() {
			used += t.CPUSeconds()
		}
		pods := cwsi.RunResult{Engine: "nextflow", Strategy: "rank", Makespan: sim.Time(res.MakespanSec),
			RequestedCoreSec: used, UsedCoreSec: used}
		ws.Addf("big-worker: makespan %6.0fs, reserved %.0f core-s, used %.0f core-s, waste %.0f%%",
			float64(big.Makespan), big.RequestedCoreSec, big.UsedCoreSec, big.Waste()*100)
		ws.Addf("CWSI pods : makespan %6.0fs, reserved %.0f core-s, used %.0f core-s, waste %.0f%%",
			float64(pods.Makespan), pods.RequestedCoreSec, pods.UsedCoreSec, pods.Waste()*100)
		rep.AddRun(compose.FromCWSI("airflow-big-worker", big))
		rep.AddRun(compose.FromCWSI("cwsi-pods", pods))
	}
	app.Emit(rep)
}

// newSession builds a session on env, exiting on a configuration error.
func newSession(app *driver.App, env *core.KubernetesEnv) core.RunSession {
	sess, err := env.NewSession()
	app.Check(err)
	return sess
}

// makespan runs w on sess and returns its makespan in seconds.
func makespan(app *driver.App, sess core.RunSession, w *dag.Workflow) float64 {
	res, err := sess.RunSeeded(w, nil)
	app.Check(err)
	return res.MakespanSec
}
