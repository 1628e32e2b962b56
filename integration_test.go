package hhcw_test

// End-to-end integration tests spanning multiple subsystems — the scenarios
// a downstream user of the library would actually run.

import (
	"encoding/json"
	"strings"
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
	"hhcw/internal/predict"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
	"hhcw/internal/storage"
)

// TestComposeOnceRunEverywhere is the paper's thesis as a test: one
// composition executes on every environment and completes everywhere.
func TestComposeOnceRunEverywhere(t *testing.T) {
	wf, err := core.Compile("thesis", core.Sequence(
		core.Task("ingest", core.WithDuration(120), core.WithData(5e9, 2e9)),
		core.Parallel(
			core.Sub("qc", core.Sequence(
				core.Task("fastqc", core.WithDuration(60)),
				core.Task("multiqc", core.WithDuration(30)),
			)),
			core.Scatter(6, func(i int) core.Node {
				return core.Task("align", core.WithDuration(240), core.WithCores(2))
			}),
		),
		core.Task("report", core.WithDuration(45)),
	))
	if err != nil {
		t.Fatal(err)
	}
	envs := []core.Environment{
		&core.KubernetesEnv{Nodes: 3, CoresPerNode: 8},
		&core.KubernetesEnv{Nodes: 3, CoresPerNode: 8, Strategy: cwsi.Rank{}, Predict: "regression"},
		&core.HPCEnv{Nodes: 8, CoresPerNode: 8, BootstrapSec: 85, SchedRate: 100, LaunchRate: 50},
		&core.CloudEnv{MaxInstances: 8, Instance: cloud.C6aLarge},
	}
	for _, env := range envs {
		res, err := core.Run(env, wf, randx.New(1))
		if err != nil {
			t.Fatalf("%T: %v", env, err)
		}
		if res.TasksRun != wf.Len() {
			t.Fatalf("%s: ran %d of %d", res.Environment, res.TasksRun, wf.Len())
		}
		cp, _ := wf.CriticalPath(dag.NominalDur)
		if res.MakespanSec < cp-1e-6 {
			t.Fatalf("%s: makespan %v below critical path %v", res.Environment, res.MakespanSec, cp)
		}
	}
}

// TestCWSProvenanceFeedsPredictionFeedsScheduling closes the §3.3→§3.4 loop:
// run a workflow, train predictors from the provenance store, and verify the
// predictions are usable for a second scheduling round.
func TestCWSProvenanceFeedsPredictionFeedsScheduling(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.Heterogeneous(eng, 2)
	p := predict.NewRegression()
	mgr := rm.NewTaskManager(cl, nil)
	cws := cwsi.New(mgr, cwsi.HEFT{}, p)

	opts := dag.GenOpts{MeanDur: 200, CVDur: 0.3}
	w1 := dag.RNASeqLike(randx.New(1), 10, opts)
	if err := cws.RegisterWorkflow("train", w1); err != nil {
		t.Fatal(err)
	}
	if _, err := runCWS(cws, mgr, "train", w1, 0); err != nil {
		t.Fatal(err)
	}

	// The provenance store now has one record per task.
	if cws.Provenance().Len() != w1.Len() {
		t.Fatalf("provenance = %d records, want %d", cws.Provenance().Len(), w1.Len())
	}
	// Every process family is predictable on any machine class.
	for _, name := range []string{"prefetch", "fasterq", "salmon", "deseq2"} {
		if _, ok := p.Predict(name, 1e9, 2.0); !ok {
			t.Fatalf("predictor cold for %q after training run", name)
		}
	}
	// Train offline predictors from the same store (the §3.4 pipeline).
	lot := predict.NewLotaru()
	for _, r := range cws.Provenance().All() {
		if !r.Failed {
			lot.Observe(predict.Observation{
				TaskName: r.Name, InputBytes: r.InputBytes, RuntimeSec: float64(r.Runtime()),
				PeakMem: r.PeakMem, MachineName: r.MachineType, SpeedFactor: r.SpeedFactor,
			})
		}
	}
	if _, ok := lot.Predict("salmon", 2e9, 1.4); !ok {
		t.Fatal("lotaru untrainable from provenance observations")
	}

	// Second workflow schedules with warm predictions.
	w2 := dag.RNASeqLike(randx.New(2), 10, opts)
	if err := cws.RegisterWorkflow("serve", w2); err != nil {
		t.Fatal(err)
	}
	if _, err := runCWS(cws, mgr, "serve", w2, 0); err != nil {
		t.Fatal(err)
	}
}

// runCWS drives w, registered with cws as id, on a new StreamRunner over
// mgr, the manager cws schedules for (see cwsi.CWS.Bind; no recovery policy,
// so a failed task is resubmitted at once up to maxRetries times). It runs
// the engine and returns the makespan.
func runCWS(cws *cwsi.CWS, mgr *rm.TaskManager, id string, w *dag.Workflow, maxRetries int) (sim.Time, error) {
	x, err := dag.NewWorkflowExpander(w)
	if err != nil {
		return 0, err
	}
	sr := &rm.StreamRunner{Manager: mgr, Source: x}
	if err := cws.Bind(sr, id, maxRetries, 0); err != nil {
		return 0, err
	}
	ms := sr.Run()
	return ms, sr.Err()
}

// TestExaAMOnFaultyFrontier runs the UQ stage 3 with real node failures (not
// just task-level injection) and checks EnTK's resubmission recovers
// everything.
func TestExaAMOnFaultyFrontier(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.Frontier(eng, 256)
	bm := rm.NewBatchManager(cl, nil)
	// Three of the pilot's nodes fail while the ensemble runs on them.
	for i, n := range cl.Nodes()[:3] {
		eng.At(sim.Time(1000+500*i), func() { cl.FailNode(n) })
	}

	cfg := exaam.Config{GridDim: 2, GridLevel: 1, MeltPoolCases: 5, MicroParams: 2,
		LoadingDirections: 4, Temperatures: 2, RVEs: 2, Seed: 13}
	am := entk.NewAppManager(cl, bm, entk.FrontierResource(200, 12*3600))
	am.MaxResubmitRounds = 3
	rep, err := am.Run(exaam.Stage3Pipeline(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksExecuted != cfg.PropertyTasks() {
		t.Fatalf("executed %d of %d after faults", rep.TasksExecuted, cfg.PropertyTasks())
	}
	if rep.TasksFailed != 0 {
		t.Fatalf("terminal failures = %d", rep.TasksFailed)
	}
	if rep.Rounds < 2 || rep.ResubmittedOK == 0 {
		t.Fatalf("rounds %d, resubmitted %d: the node failures killed no task", rep.Rounds, rep.ResubmittedOK)
	}
}

// TestAtlasHybridAcrossSubstrates runs the §5.3 hybrid split: the same
// catalog divided between a cloud fleet and an HPC cluster.
func TestAtlasHybridAcrossSubstrates(t *testing.T) {
	rng := randx.New(21)
	catalog := atlas.GenerateCatalog(rng.Fork(), 50)
	eng := sim.NewEngine()
	ares := cluster.New(eng, "ares", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 48, MemBytes: 192e9},
		Count: 2,
	})
	rep, err := atlas.RunHybrid(rng, catalog, 5, ares, 5, atlas.SalmonKind)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cloud.Files+rep.HPC.Files != 50 {
		t.Fatal("hybrid lost files")
	}
	if rep.MakespanSec <= 0 {
		t.Fatal("no makespan")
	}
}

// TestLLMComposedWorkflowThroughJAWS chains §2 and §6: a natural-language
// instruction produces a workflow via function calling; its structure is
// then expressed in the JAWS DSL, linted, and executed on a site.
func TestLLMComposedWorkflowThroughJAWS(t *testing.T) {
	// §2: compose.
	eng := sim.NewEngine()
	exec := futures.NewExecutor(eng)
	specs := llmwf.RegisterPhyloflow(exec, "")
	stats, err := llmwf.RunFunctionCalling(eng, exec, llmwf.NewMockLLM(llmwf.PhyloflowTemplate),
		specs, "run the phylogenetic analysis on cohort.vcf", 0)
	if err != nil {
		t.Fatal(err)
	}

	// §6: express the composed chain as a workflow description.
	var b strings.Builder
	b.WriteString("workflow phyloflow\ncontainer docker://phylo/all@sha256:beef\n")
	prev := ""
	for i, id := range stats.FutureIDs {
		f, _ := exec.Lookup(id)
		line := "task " + f.AppName + " dur=40m overhead=1m"
		if i > 0 {
			line += " after=" + prev
		}
		b.WriteString(line + "\n")
		prev = f.AppName
	}
	def, err := jaws.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range jaws.Lint(def) {
		if f.Severity == jaws.Error {
			t.Fatalf("lint error on composed workflow: %v", f)
		}
	}

	// Execute on a JAWS site.
	eng2 := sim.NewEngine()
	svc := jaws.NewService(eng2)
	site := cluster.New(eng2, "dori", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 16, MemBytes: 128e9},
		Count: 2,
	})
	svc.AddSite("dori", site)
	svc.Central().Put(storage.File{Name: "cohort.vcf", Bytes: 1e9})
	res, err := svc.Submit(def, "aduque", "dori", []string{"cohort.vcf"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.ShardsExecuted != 4 {
		t.Fatalf("executed %d shards, want 4", res.Report.ShardsExecuted)
	}
}

// TestProvenanceExportRoundTrip checks that a CWS run's provenance exports
// to valid PROV JSON with lineage intact.
func TestProvenanceExportRoundTrip(t *testing.T) {
	w := dag.Diamond(randx.New(3), dag.GenOpts{MeanDur: 60})
	res, err := core.Run(&core.KubernetesEnv{Nodes: 2, CoresPerNode: 8, Strategy: cwsi.Rank{}}, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := res.Provenance.(*provenance.Store).ExportPROV()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "wasGeneratedBy") {
		t.Fatal("PROV export missing relations")
	}
	var prov struct {
		Workflows map[string][]struct {
			Task string
			Deps []string
		}
	}
	if err := json.Unmarshal(doc, &prov); err != nil {
		t.Fatal(err)
	}
	sinkDeps := -1
	for _, td := range prov.Workflows[w.Name] {
		if td.Task == "sink" {
			sinkDeps = len(td.Deps)
		}
	}
	if sinkDeps != 2 {
		t.Fatalf("sink lineage = %d upstream tasks, want 2", sinkDeps)
	}
}
