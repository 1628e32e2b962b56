package sweep

// Warm-run equivalence battery: the sweep's session reuse (one warm
// core.RunSession per worker per env, reset in place between jobs) must be
// observationally invisible — bit-identical per-run fingerprints against
// cold runs, each on a new session of a fresh environment (core.Run). Cold
// execution is forced through an EnvSpec.NewSession whose session does that
// for every job.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
)

// coldSession runs every job on a new session of a fresh environment.
type coldSession struct{ spec EnvSpec }

func (c coldSession) Name() string    { return c.spec.Name }
func (c coldSession) Audit() []string { return nil }
func (c coldSession) RunSeeded(w *dag.Workflow, rng *randx.Source) (*core.Result, error) {
	return core.Run(c.spec.New(), w, rng)
}

// coldOnly wraps an EnvSpec so the sweep can never reuse a warm session for
// it: its one session per worker runs every job cold.
func coldOnly(spec EnvSpec) EnvSpec {
	spec.NewSession = func() (core.RunSession, error) { return coldSession{spec}, nil }
	return spec
}

func coldConfig(cfg Config) Config {
	envs := make([]EnvSpec, len(cfg.Envs))
	for i, e := range cfg.Envs {
		envs[i] = coldOnly(e)
	}
	cfg.Envs = envs
	return cfg
}

// TestWarmColdEquivalence runs the 200-seed ensemble — FIFO and CWS
// environments, fault-free and under the storm profile — warm and cold at
// workers 1 and NumCPU, and requires bit-identical report fingerprints. This
// is the sweep-level enforcement of the session determinism contract.
func TestWarmColdEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed warm/cold equivalence sweep in -short mode")
	}
	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		faults fault.Profile
	}{
		{"fault-free", fault.Profile{}},
		{"storm", storm},
	}
	workers := []int{1}
	if n := runtime.NumCPU(); n != 1 {
		workers = append(workers, n)
	}
	for _, c := range cases {
		faults := c.faults
		warmCfg := Config{
			Workflows: []WorkflowSpec{goldenWorkflow()},
			Envs: []EnvSpec{
				{Name: "k8s", New: func() core.Environment {
					return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: faults}
				}},
				{Name: "k8s-cws", New: func() core.Environment {
					return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}, Faults: faults}
				}},
			},
			Seeds: Seeds(1, 200),
		}
		coldCfg := coldConfig(warmCfg)
		for _, wk := range workers {
			warmCfg.Workers, coldCfg.Workers = wk, wk
			warmRep, err := Run(warmCfg)
			if err != nil {
				t.Fatalf("%s workers=%d warm: %v", c.name, wk, err)
			}
			coldRep, err := Run(coldCfg)
			if err != nil {
				t.Fatalf("%s workers=%d cold: %v", c.name, wk, err)
			}
			wf, cf := warmRep.Fingerprint(), coldRep.Fingerprint()
			if wf != cf {
				wl, cl := strings.Split(wf, "\n"), strings.Split(cf, "\n")
				for i := range wl {
					if i >= len(cl) || wl[i] != cl[i] {
						t.Fatalf("%s workers=%d: first divergence at run %d:\n warm %s\n cold %s",
							c.name, wk, i, wl[i], cl[i])
					}
				}
				t.Fatalf("%s workers=%d: warm report longer than cold", c.name, wk)
			}
		}
	}
}

// TestPoolWorkersClamp pins the worker-count resolution: never more workers
// than jobs, NumCPU default, floor of one.
func TestPoolWorkersClamp(t *testing.T) {
	ncpu := runtime.NumCPU()
	for _, tc := range []struct {
		total, workers, want int
	}{
		{2, 64, 2}, // clamp to job total
		{2, 0, min(ncpu, 2)},
		{100, 0, min(ncpu, 100)},
		{5, 3, 3},
		{1, -7, 1},
	} {
		if got := PoolWorkers(tc.total, tc.workers); got != tc.want {
			t.Errorf("PoolWorkers(%d, %d) = %d, want %d", tc.total, tc.workers, got, tc.want)
		}
	}
}

// TestForEachWorkerSpawnsAtMostTotal proves the satellite fix behaviorally: a
// 2-job run at workers=64 touches at most 2 distinct worker indices, and
// every observed index is within PoolWorkers range.
func TestForEachWorkerSpawnsAtMostTotal(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	err := ForEachWorker(2, 64, nil, func(worker, idx int) error {
		mu.Lock()
		seen[worker] = true
		mu.Unlock()
		if worker < 0 || worker >= 2 {
			return fmt.Errorf("worker index %d out of range [0,2)", worker)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) > 2 {
		t.Fatalf("2-job run used %d workers, want <= 2", len(seen))
	}
}
