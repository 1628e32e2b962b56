package sweep

// Cross-change golden fingerprints. The worker-invariance tests in
// determinism_test.go prove a sweep is identical at any -workers *within one
// build*; these goldens additionally pin the bytes across builds. The hashes
// were captured on the pre-optimization event core (container/heap queue,
// per-event allocation, pop-one-at-a-time), so they prove the typed 4-ary
// heap, the event slabs, the same-timestamp batching, and the zero-alloc
// reduction changed nothing observable: 200 seeds × 2 environments, fault-free
// and chaos, bit-identical to the old kernel at every worker count.
//
// If a PR changes these hashes it changed simulation semantics — either fix
// it, or re-capture deliberately and say so in the PR (see docs/bench-schema.md
// for the capture recipe).

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
)

const (
	// montage-8 on k8s + k8s-cws (baseline k8s), seeds 1..200.
	goldenSweep200 = "a48d58e103c1463c67283fd890abc6afe73ed4f7ed6a2e1f72f1a9d3c13f45c7"
	// montage-8 on k8s+mtbf + k8s-cws+storm, seeds 1..200 — the chaos
	// variant exercises fault cancellations and retry timers through the
	// event queue.
	goldenChaos200 = "8189b6e3d9818244f9b7a34f7c7a3f354099f51130665195f689b9592404e5f0"
	// montage-8 on hpc (pilot job) + cloud (elastic instance fleet), seeds
	// 1..200 — the two substrates that run without an rm.TaskManager.
	goldenPilotCloud200 = "ab393fcaa06f0f224954eb5d5446629e50694f6723f34f000428aa6e29299a8d"
)

func goldenWorkflow() WorkflowSpec {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	return WorkflowSpec{
		Name: "montage",
		Gen:  func(r *randx.Source) *dag.Workflow { return dag.MontageLike(r, 8, opts) },
	}
}

func fingerprintHash(t *testing.T, cfg Config, workers int) string {
	t.Helper()
	cfg.Workers = workers
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(rep.Fingerprint())))
}

func goldenWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// TestGoldenSweep200Fingerprint pins the fault-free 200-seed ensemble to its
// pre-rework bytes at workers 1, 4, and NumCPU.
func TestGoldenSweep200Fingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed golden sweep in -short mode")
	}
	cfg := Config{
		Workflows: []WorkflowSpec{goldenWorkflow()},
		Envs: []EnvSpec{
			{Name: "k8s", New: func() core.Environment {
				return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8}
			}},
			{Name: "k8s-cws", New: func() core.Environment {
				return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}}
			}},
		},
		Seeds:    Seeds(1, 200),
		Baseline: "k8s",
	}
	for _, w := range goldenWorkerCounts() {
		if got := fingerprintHash(t, cfg, w); got != goldenSweep200 {
			t.Errorf("workers=%d: fingerprint sha256 = %s, want golden %s", w, got, goldenSweep200)
		}
	}
}

// TestGoldenPilotCloud200Fingerprint pins the 200-seed ensemble on the pilot
// and cloud-fleet environments across builds, at workers 1, 4, and NumCPU.
func TestGoldenPilotCloud200Fingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed golden pilot/cloud sweep in -short mode")
	}
	cfg := Config{
		Workflows: []WorkflowSpec{goldenWorkflow()},
		Envs: []EnvSpec{
			{Name: "hpc", New: func() core.Environment {
				return &core.HPCEnv{Nodes: 4, CoresPerNode: 8, BootstrapSec: 85}
			}},
			{Name: "cloud", New: func() core.Environment {
				return &core.CloudEnv{MaxInstances: 4}
			}},
		},
		Seeds: Seeds(1, 200),
	}
	for _, w := range goldenWorkerCounts() {
		if got := fingerprintHash(t, cfg, w); got != goldenPilotCloud200 {
			t.Errorf("workers=%d: fingerprint sha256 = %s, want golden %s", w, got, goldenPilotCloud200)
		}
	}
}

// TestGoldenChaos200Fingerprint pins the fault-injected 200-seed ensemble —
// the heaviest consumer of event cancellation — to its pre-rework bytes.
func TestGoldenChaos200Fingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed golden chaos sweep in -short mode")
	}
	mtbf, err := fault.ByName("mtbf")
	if err != nil {
		t.Fatal(err)
	}
	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workflows: []WorkflowSpec{goldenWorkflow()},
		Envs: []EnvSpec{
			{Name: "k8s-mtbf", New: func() core.Environment {
				return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: mtbf}
			}},
			{Name: "k8s-cws-storm", New: func() core.Environment {
				return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}, Faults: storm}
			}},
		},
		Seeds: Seeds(1, 200),
	}
	for _, w := range goldenWorkerCounts() {
		if got := fingerprintHash(t, cfg, w); got != goldenChaos200 {
			t.Errorf("workers=%d: fingerprint sha256 = %s, want golden %s", w, got, goldenChaos200)
		}
	}
}
