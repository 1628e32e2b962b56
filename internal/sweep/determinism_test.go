package sweep

// Golden determinism tests — the regression guard that keeps the concurrency
// tentpole honest. Every (workflow family, environment) combo exposed by
// cmd/wfsim is run twice sequentially and once inside the parallel sweep
// pool, and the per-seed core.Result fields must be bit-identical (compared
// via Result.Fingerprint, which encodes the raw IEEE-754 bits). A separate
// test proves the full 200-seed aggregate report is byte-identical at
// -workers 1 and -workers NumCPU.

import (
	"reflect"
	"runtime"
	"testing"

	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
)

func allWorkflows() []WorkflowSpec {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	return []WorkflowSpec{
		{Name: "montage", Gen: func(r *randx.Source) *dag.Workflow { return dag.MontageLike(r, 8, opts) }},
		{Name: "epigenomics", Gen: func(r *randx.Source) *dag.Workflow { return dag.EpigenomicsLike(r, 4, 5, opts) }},
		{Name: "forkjoin", Gen: func(r *randx.Source) *dag.Workflow { return dag.ForkJoin(r, 3, 8, opts) }},
		{Name: "rnaseq", Gen: func(r *randx.Source) *dag.Workflow { return dag.RNASeqLike(r, 8, opts) }},
		{Name: "layered", Gen: func(r *randx.Source) *dag.Workflow { return dag.RandomLayered(r, 6, 8, opts) }},
	}
}

func allEnvs() []EnvSpec {
	return []EnvSpec{
		{Name: "k8s", New: func() core.Environment {
			return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8}
		}},
		{Name: "k8s-cws", New: func() core.Environment {
			return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}}
		}},
		{Name: "hpc", New: func() core.Environment {
			return &core.HPCEnv{Nodes: 4, CoresPerNode: 8, BootstrapSec: 85}
		}},
		{Name: "cloud", New: func() core.Environment {
			return &core.CloudEnv{MaxInstances: 4}
		}},
	}
}

// runSequential executes one (workflow, env, seed) directly on the calling
// goroutine, exactly as cmd/wfsim's single-run path does.
func runSequential(t *testing.T, w WorkflowSpec, e EnvSpec, seed int64) core.Result {
	t.Helper()
	rng := randx.New(seed)
	res, err := core.Run(e.New(), w.Gen(rng), rng.Fork())
	if err != nil {
		t.Fatalf("%s on %s seed %d: %v", w.Name, e.Name, seed, err)
	}
	r := *res
	r.Provenance = nil
	return r
}

// TestGoldenDeterminism runs every wfsim (workflow, env) combo twice
// sequentially and once through the parallel pool; all three per-seed
// results must agree bit-for-bit.
func TestGoldenDeterminism(t *testing.T) {
	seeds := Seeds(1, 3)
	rep, err := Run(Config{
		Workflows: allWorkflows(),
		Envs:      allEnvs(),
		Seeds:     seeds,
		Workers:   runtime.NumCPU() + 3, // oversubscribe to force interleaving
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, w := range allWorkflows() {
		for _, e := range allEnvs() {
			for _, seed := range seeds {
				got := rep.Runs[i]
				i++
				first := runSequential(t, w, e, seed)
				second := runSequential(t, w, e, seed)
				if first.Fingerprint() != second.Fingerprint() {
					t.Errorf("%s on %s seed %d: two sequential runs differ:\n  %s\n  %s",
						w.Name, e.Name, seed, first.Fingerprint(), second.Fingerprint())
					continue
				}
				if got.Result.Fingerprint() != first.Fingerprint() {
					t.Errorf("%s on %s seed %d: pool run differs from sequential:\n  pool: %s\n  seq:  %s",
						w.Name, e.Name, seed, got.Result.Fingerprint(), first.Fingerprint())
				}
			}
		}
	}
	if i != len(rep.Runs) {
		t.Fatalf("walked %d runs, report has %d", i, len(rep.Runs))
	}
}

// TestSweep200SeedsWorkerInvariant is the acceptance check: a 200-seed
// montage sweep produces byte-identical aggregate reports at -workers 1,
// -workers 4, and -workers NumCPU.
func TestSweep200SeedsWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed sweep in -short mode")
	}
	cfg := Config{
		Workflows: []WorkflowSpec{allWorkflows()[0]}, // montage
		Envs:      allEnvs()[:2],                     // k8s fifo + k8s-cws
		Seeds:     Seeds(1, 200),
		Baseline:  "k8s",
	}
	workerCounts := []int{1, 4, runtime.NumCPU()}
	var reports []*Report
	var tables []string
	for _, wkr := range workerCounts {
		cfg.Workers = wkr
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", wkr, err)
		}
		reports = append(reports, rep)
		tables = append(tables, rep.Table())
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Errorf("report at workers=%d differs structurally from workers=%d",
				workerCounts[i], workerCounts[0])
		}
		if reports[0].Fingerprint() != reports[i].Fingerprint() {
			t.Errorf("per-seed fingerprints differ between workers=%d and workers=%d",
				workerCounts[0], workerCounts[i])
		}
		if tables[0] != tables[i] {
			t.Errorf("rendered table differs between workers=%d and workers=%d:\n%s\nvs\n%s",
				workerCounts[0], workerCounts[i], tables[0], tables[i])
		}
	}
}
