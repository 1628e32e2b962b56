package core

import (
	"strings"
	"testing"

	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
)

func TestCompileSequence(t *testing.T) {
	w, err := Compile("seq", Sequence(
		Task("a", WithDuration(10)),
		Task("b", WithDuration(20)),
		Task("c", WithDuration(30)),
	))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 {
		t.Fatalf("tasks = %d", w.Len())
	}
	cp, _ := w.CriticalPath(dag.NominalDur)
	if cp != 60 {
		t.Fatalf("critical path = %v, want 60 (fully serial)", cp)
	}
}

func TestCompileParallel(t *testing.T) {
	w, err := Compile("par", Parallel(
		Task("a", WithDuration(10)),
		Task("b", WithDuration(20)),
	))
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := w.CriticalPath(dag.NominalDur)
	if cp != 20 {
		t.Fatalf("critical path = %v, want 20 (parallel)", cp)
	}
	if len(w.Roots()) != 2 {
		t.Fatalf("roots = %d", len(w.Roots()))
	}
}

func TestCompileForkJoin(t *testing.T) {
	w, err := Compile("fj", Sequence(
		Task("prep", WithDuration(5)),
		Parallel(
			Task("left", WithDuration(10)),
			Task("right", WithDuration(30)),
		),
		Task("merge", WithDuration(5)),
	))
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := w.CriticalPath(dag.NominalDur)
	if cp != 40 { // 5 + 30 + 5
		t.Fatalf("critical path = %v, want 40", cp)
	}
	// merge depends on both branches.
	var merge *dag.Task
	for _, task := range w.Tasks() {
		if task.Name == "merge" {
			merge = task
		}
	}
	if merge == nil || len(merge.Deps) != 2 {
		t.Fatalf("merge deps = %+v", merge)
	}
}

func TestCompileScatter(t *testing.T) {
	w, err := Compile("sc", Sequence(
		Task("split", WithDuration(5)),
		Scatter(8, func(i int) Node {
			return Sequence(
				Task("map", WithDuration(10)),
				Task("reduce-local", WithDuration(2)),
			)
		}),
		Task("gather", WithDuration(5)),
	))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1+8*2+1 {
		t.Fatalf("tasks = %d, want 18", w.Len())
	}
	cp, _ := w.CriticalPath(dag.NominalDur)
	if cp != 22 { // 5 + 10 + 2 + 5
		t.Fatalf("critical path = %v", cp)
	}
}

func TestCompileSubNamespacing(t *testing.T) {
	frag := Sequence(Task("step", WithDuration(1)), Task("step2", WithDuration(1)))
	w, err := Compile("subs", Parallel(
		Sub("alpha", frag),
		Sub("beta", frag),
	))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 4 {
		t.Fatalf("tasks = %d", w.Len())
	}
	for _, task := range w.Tasks() {
		if !strings.Contains(string(task.ID), "alpha/") && !strings.Contains(string(task.ID), "beta/") {
			t.Fatalf("task %q not namespaced", task.ID)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	// Same task name in sibling fragments is legal: namespacing keeps the
	// IDs distinct.
	if w, err := Compile("dup", Parallel(Task("x"), Task("x"))); err != nil || w.Len() != 2 {
		t.Fatalf("namespaced duplicate names rejected: %v", err)
	}
	if _, err := Compile("empty", Sequence()); err == nil {
		t.Fatal("empty workflow accepted")
	}
	if _, err := Compile("noname", Task("")); err == nil {
		t.Fatal("empty task name accepted")
	}
	if _, err := Compile("baddur", Task("x", WithDuration(-1))); err == nil {
		t.Fatal("negative duration accepted")
	}
	if _, err := Compile("badscatter", Scatter(0, func(int) Node { return Task("x") })); err == nil {
		t.Fatal("zero scatter accepted")
	}
}

func TestTaskOptions(t *testing.T) {
	w, err := Compile("opts", Task("x",
		WithCores(4), WithGPUs(1), WithMemory(8e9), WithDuration(100),
		WithIOFraction(0.2), WithData(1e9, 2e9), WithParam("k", "v"),
	))
	if err != nil {
		t.Fatal(err)
	}
	task := w.Tasks()[0]
	if task.Cores != 4 || task.GPUs != 1 || task.MemBytes != 8e9 {
		t.Fatalf("resources = %+v", task)
	}
	if task.IOFrac != 0.2 || task.InputBytes != 1e9 || task.OutputBytes != 2e9 {
		t.Fatalf("data = %+v", task)
	}
	if task.Params["k"] != "v" {
		t.Fatalf("params = %v", task.Params)
	}
}

func testWorkflow(t *testing.T) *dag.Workflow {
	t.Helper()
	w, err := Compile("wf", Sequence(
		Task("prep", WithDuration(30)),
		Scatter(6, func(i int) Node { return Task("work", WithDuration(120), WithCores(2)) }),
		Task("merge", WithDuration(30)),
	))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestKubernetesEnvRun(t *testing.T) {
	w := testWorkflow(t)
	env := &KubernetesEnv{Nodes: 3, CoresPerNode: 4}
	res, err := Run(env, w, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSec != 180 { // 30 + one wave of 120 + 30
		t.Fatalf("makespan = %v, want 180", res.MakespanSec)
	}
	if res.TasksRun != 8 {
		t.Fatalf("tasks = %d", res.TasksRun)
	}
	if res.Environment != "kubernetes" {
		t.Fatalf("env = %q", res.Environment)
	}
}

func TestKubernetesEnvWithCWS(t *testing.T) {
	w := testWorkflow(t)
	env := &KubernetesEnv{
		Nodes: 3, CoresPerNode: 4,
		Strategy: cwsi.Rank{},
	}
	res, err := Run(env, w, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Provenance == nil {
		t.Fatal("CWS run should expose provenance")
	}
	if !strings.Contains(res.Environment, "cws/rank") {
		t.Fatalf("env = %q", res.Environment)
	}
	if res.MakespanSec != 180 {
		t.Fatalf("makespan = %v", res.MakespanSec)
	}
}

// rankScenario builds a contended workload where workflow-awareness pays:
// a long critical chain plus independent filler tasks that FIFO runs first.
func rankScenario() *dag.Workflow {
	w := dag.New("rank-scenario")
	w.Add(&dag.Task{ID: "fill1", Name: "fill", NominalDur: 50})
	w.Add(&dag.Task{ID: "fill2", Name: "fill", NominalDur: 50})
	w.Add(&dag.Task{ID: "crit", Name: "crit", NominalDur: 10})
	w.Add(&dag.Task{ID: "crit2", Name: "crit", NominalDur: 100, Deps: []dag.TaskID{"crit"}})
	return w
}

func TestRankBeatsFIFOOnCriticalChain(t *testing.T) {
	makespan := func(s cwsi.Strategy) float64 {
		t.Helper()
		res, err := Run(&KubernetesEnv{Nodes: 1, CoresPerNode: 2, Strategy: s}, rankScenario(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.MakespanSec
	}
	fifo, rank := makespan(nil), makespan(cwsi.Rank{})
	if rank >= fifo {
		t.Fatalf("rank (%v) should beat fifo (%v)", rank, fifo)
	}
	if fifo != 160 {
		t.Fatalf("fifo makespan = %v, want 160", fifo)
	}
	if rank != 110 {
		t.Fatalf("rank makespan = %v, want 110", rank)
	}
}

// One workflow runs on a session per strategy, the FIFO baseline included,
// and each result carries its strategy's name.
func TestStrategyResultNames(t *testing.T) {
	w := dag.MontageLike(randx.New(4), 8, dag.GenOpts{MeanDur: 30})
	for _, c := range []struct {
		strat cwsi.Strategy
		want  string
	}{
		{nil, "kubernetes"},
		{cwsi.Rank{}, "kubernetes+cws/rank"},
		{cwsi.FileSize{}, "kubernetes+cws/filesize-desc"},
		{cwsi.HEFT{}, "kubernetes+cws/heft"},
	} {
		sess, err := (&KubernetesEnv{Nodes: 2, CoresPerNode: 4, Strategy: c.strat}).NewSession()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.RunSeeded(w, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.want, err)
		}
		if res.Environment != c.want || res.MakespanSec <= 0 {
			t.Errorf("result %q with makespan %v, want %q with a makespan", res.Environment, res.MakespanSec, c.want)
		}
	}
}

func TestHPCEnvRun(t *testing.T) {
	w := testWorkflow(t)
	env := &HPCEnv{Nodes: 6, CoresPerNode: 4, BootstrapSec: 85}
	res, err := Run(env, w, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// 85 OVH + 30 + 120 + 30.
	if res.MakespanSec != 265 {
		t.Fatalf("makespan = %v, want 265", res.MakespanSec)
	}
}

func TestCloudEnvRun(t *testing.T) {
	w := testWorkflow(t)
	env := &CloudEnv{MaxInstances: 6}
	res, err := Run(env, w, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// 60s boot + 30 prep + 120 wave + 30 merge = 240; later shards may
	// wait for extra instance boots, but all 6 boot during prep.
	if res.MakespanSec < 240 || res.MakespanSec > 400 {
		t.Fatalf("makespan = %v, want ~240", res.MakespanSec)
	}
	if res.UtilizationCore <= 0 || res.UtilizationCore > 1 {
		t.Fatalf("utilization = %v", res.UtilizationCore)
	}
}

func TestSameWorkflowAcrossEnvironments(t *testing.T) {
	// The paper's thesis: one composition, many environments.
	w := testWorkflow(t)
	envs := []Environment{
		&KubernetesEnv{Nodes: 3, CoresPerNode: 4},
		&KubernetesEnv{Nodes: 3, CoresPerNode: 4, Strategy: cwsi.HEFT{}},
		&HPCEnv{Nodes: 6, CoresPerNode: 4},
		&CloudEnv{MaxInstances: 8},
	}
	for _, env := range envs {
		res, err := Run(env, w, randx.New(1))
		if err != nil {
			t.Fatalf("%T: %v", env, err)
		}
		if res.TasksRun != w.Len() {
			t.Fatalf("%s ran %d tasks", res.Environment, res.TasksRun)
		}
		if res.MakespanSec <= 0 {
			t.Fatalf("%s makespan = %v", res.Environment, res.MakespanSec)
		}
	}
}

func TestEnvValidation(t *testing.T) {
	for _, c := range []struct {
		env  Environment
		want string
	}{
		{&KubernetesEnv{}, "core: kubernetes env needs nodes and cores"},
		{&HPCEnv{}, "core: hpc env needs nodes"},
		{&CloudEnv{}, "core: cloud env needs instances"},
	} {
		if s, err := c.env.NewSession(); err == nil || err.Error() != c.want {
			t.Fatalf("%T: NewSession = %v, %v; want error %q", c.env, s, err, c.want)
		}
	}
}

func TestWhenCombinator(t *testing.T) {
	build := func(qc bool) int {
		w, err := Compile("cond", Sequence(
			Task("ingest", WithDuration(10)),
			When(qc, Task("fastqc", WithDuration(5))),
			Task("align", WithDuration(20)),
		))
		if err != nil {
			t.Fatal(err)
		}
		return w.Len()
	}
	if build(true) != 3 {
		t.Fatal("When(true) should include the fragment")
	}
	if build(false) != 2 {
		t.Fatal("When(false) should skip the fragment")
	}
	// Dependencies pass through a skipped When: align depends on ingest.
	w, _ := Compile("cond", Sequence(
		Task("ingest", WithDuration(10)),
		When(false, Task("fastqc", WithDuration(5))),
		Task("align", WithDuration(20)),
	))
	cp, _ := w.CriticalPath(dag.NominalDur)
	if cp != 30 {
		t.Fatalf("critical path = %v, want 30 (chain preserved)", cp)
	}
}
