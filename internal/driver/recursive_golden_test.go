package driver

import (
	"fmt"
	"runtime"
	"testing"

	"hhcw/internal/compose"
	"hhcw/internal/core"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/sweep"
)

// registrySpecs builds the static and lazy sweep specs for one registry
// entry, exactly as wfsim -registry does: both draw the per-seed binding the
// same way, so the only difference is when references resolve.
func registrySpecs(reg *compose.Registry, entry string) (static, lazy sweep.WorkflowSpec) {
	static = sweep.WorkflowSpec{Name: entry, Gen: func(rng *randx.Source) *dag.Workflow {
		w, err := reg.Expand(RefRoot(entry, rng.Int63()))
		if err != nil {
			panic(fmt.Sprintf("expanding %q: %v", entry, err))
		}
		return w
	}}
	lazy = sweep.WorkflowSpec{Name: entry, Gen: func(rng *randx.Source) *dag.Workflow {
		return RefRoot(entry, rng.Int63())
	}}
	return static, lazy
}

func batteryFingerprint(t *testing.T, spec sweep.WorkflowSpec, env sweep.EnvSpec, seeds, workers int) string {
	t.Helper()
	rep, err := sweep.Run(sweep.Config{
		Workflows: []sweep.WorkflowSpec{spec},
		Envs:      []sweep.EnvSpec{env},
		Seeds:     sweep.Seeds(1, seeds),
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Fingerprint()
}

// TestRecursiveGoldenBattery is the acceptance battery for recursive
// composition: the nested atlas-uq entry (root ref -> atlas-uq -> {atlas,
// exaam-uq}) over 50 seeds, fault-free and under the storm chaos profile, at
// workers 1 and NumCPU — static expansion on the eager path vs lazy
// dag.RefExpander on the streaming path, per-seed Result fingerprints
// bit-identical element for element.
func TestRecursiveGoldenBattery(t *testing.T) {
	const seeds = 50
	reg := Registry()
	staticSpec, lazySpec := registrySpecs(reg, "atlas-uq")
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	profiles := []fault.Profile{{}, fault.Storm()}
	for _, faults := range profiles {
		faults := faults
		staticEnv := sweep.EnvSpec{Name: "k8s", New: func() core.Environment {
			return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: faults}
		}}
		lazyEnv := sweep.EnvSpec{Name: "k8s", New: func() core.Environment {
			return &compose.LazyEnv{
				KubernetesEnv: core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: faults},
				Registry:      reg,
			}
		}}
		ref := batteryFingerprint(t, staticSpec, staticEnv, seeds, 1)
		for _, w := range workerCounts {
			if got := batteryFingerprint(t, staticSpec, staticEnv, seeds, w); got != ref {
				t.Errorf("faults=%q: static battery diverges at workers=%d", faults.Name, w)
			}
			if got := batteryFingerprint(t, lazySpec, lazyEnv, seeds, w); got != ref {
				t.Errorf("faults=%q: lazy battery diverges from static at workers=%d", faults.Name, w)
			}
		}
	}
}

// TestRegistryEntriesExpandBothWays checks every builtin entry resolves,
// expands statically, and produces an identical single-run fingerprint under
// lazy expansion — the quick whole-catalog version of the battery above.
func TestRegistryEntriesExpandBothWays(t *testing.T) {
	reg := Registry()
	for _, entry := range reg.Names() {
		root := RefRoot(entry, 42)
		w, err := reg.Expand(root)
		if err != nil {
			t.Errorf("entry %q: static expand: %v", entry, err)
			continue
		}
		if w.Len() < 2 {
			t.Errorf("entry %q expands to %d tasks", entry, w.Len())
		}
		env := &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: fault.Storm()}
		sres, err := core.Run(env, w, randx.New(9))
		if err != nil {
			t.Errorf("entry %q: static run: %v", entry, err)
			continue
		}
		lenv := &compose.LazyEnv{
			KubernetesEnv: core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: fault.Storm()},
			Registry:      reg,
		}
		lres, err := core.Run(lenv, RefRoot(entry, 42), randx.New(9))
		if err != nil {
			t.Errorf("entry %q: lazy run: %v", entry, err)
			continue
		}
		if sres.Fingerprint() != lres.Fingerprint() {
			t.Errorf("entry %q: static %s != lazy %s", entry, sres.Fingerprint(), lres.Fingerprint())
		}
	}
}
