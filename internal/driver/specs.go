package driver

import (
	"fmt"

	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/sweep"
)

// WorkflowFamilies lists the synthetic generator names WorkflowFamily
// accepts, in flag-help order.
const WorkflowFamilies = "montage|epigenomics|forkjoin|rnaseq|layered"

// WorkflowFamily returns the seeded generator for a named synthetic workflow
// family at the given width — the shared vocabulary of wfsim and the sweep
// commands. cv is the duration coefficient of variation (0 picks 0.8).
func WorkflowFamily(name string, size int, cv float64) (*sweep.WorkflowSpec, error) {
	if cv <= 0 {
		cv = 0.8
	}
	opts := dag.GenOpts{MeanDur: 300, CVDur: cv, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	var gen func(rng *randx.Source) *dag.Workflow
	switch name {
	case "montage":
		gen = func(r *randx.Source) *dag.Workflow { return dag.MontageLike(r, size, opts) }
	case "epigenomics":
		gen = func(r *randx.Source) *dag.Workflow { return dag.EpigenomicsLike(r, size/2, 5, opts) }
	case "forkjoin":
		gen = func(r *randx.Source) *dag.Workflow { return dag.ForkJoin(r, 3, size, opts) }
	case "rnaseq":
		gen = func(r *randx.Source) *dag.Workflow { return dag.RNASeqLike(r, size, opts) }
	case "layered":
		gen = func(r *randx.Source) *dag.Workflow { return dag.RandomLayered(r, 6, size, opts) }
	default:
		return nil, fmt.Errorf("unknown workflow family %q (want %s)", name, WorkflowFamilies)
	}
	return &sweep.WorkflowSpec{Name: name, Gen: gen}, nil
}

// EnvNames lists the environment names BuildEnv accepts, in flag-help order.
const EnvNames = "k8s|k8s-cws|hpc|cloud"

// BuildEnv returns the factory for a named environment. Each New call builds
// a fresh environment, so sweep workers share nothing. Fault profiles attach
// to the Kubernetes substrates only; enabling one elsewhere is an error.
func BuildEnv(name string, nodes, cores int, faults fault.Profile) (*sweep.EnvSpec, error) {
	var mk func() core.Environment
	switch name {
	case "k8s":
		mk = func() core.Environment {
			return &core.KubernetesEnv{Nodes: nodes, CoresPerNode: cores, Faults: faults}
		}
	case "k8s-cws":
		mk = func() core.Environment {
			return &core.KubernetesEnv{Nodes: nodes, CoresPerNode: cores, Strategy: cwsi.Rank{}, Faults: faults}
		}
	case "hpc":
		mk = func() core.Environment {
			return &core.HPCEnv{Nodes: nodes, CoresPerNode: cores, BootstrapSec: 85}
		}
	case "cloud":
		mk = func() core.Environment { return &core.CloudEnv{MaxInstances: nodes} }
	default:
		return nil, fmt.Errorf("unknown env %q (want %s)", name, EnvNames)
	}
	if faults.Enabled() && (name == "hpc" || name == "cloud") {
		return nil, fmt.Errorf("fault profile %q is only supported on k8s|k8s-cws", faults.Name)
	}
	return &sweep.EnvSpec{Name: name, New: mk}, nil
}
