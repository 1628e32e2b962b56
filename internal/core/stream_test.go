package core

import (
	"fmt"
	"strings"
	"testing"

	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
)

func streamTestWorkflow(seed int64) *dag.Workflow {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	return dag.MontageLike(randx.New(seed), 8, opts)
}

// The streaming path must reproduce the eager path bit for bit: same
// fingerprint for every seed, fault-free and under the storm profile.
func TestStreamingEnvMatchesEager(t *testing.T) {
	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	profiles := []struct {
		name   string
		faults fault.Profile
	}{
		{"fault-free", fault.Profile{}},
		{"storm", storm},
	}
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				w := streamTestWorkflow(seed)
				eager := &KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: p.faults}
				re, err := eager.RunSeeded(w, randx.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				stream := &StreamingEnv{KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: p.faults}}
				rs, err := stream.RunSeeded(streamTestWorkflow(seed), randx.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				if rs.Fingerprint() != re.Fingerprint() {
					t.Fatalf("seed %d:\n streaming %s\n eager     %s",
						seed, rs.Fingerprint(), re.Fingerprint())
				}
			}
		})
	}
}

// A positive residency window (rm.StreamRunner.MaxResident) must not change
// the streaming path's schedule when the ready cohorts are shape-uniform and
// the window exceeds cluster concurrency — the bounded-window contract
// documented in docs/scale.md.
func TestStreamWindowUniformShapes(t *testing.T) {
	build := func() *dag.Workflow {
		w := dag.New("uniform-scatter")
		w.Add(&dag.Task{ID: "prep", Cores: 1, NominalDur: 30})
		for i := 0; i < 500; i++ {
			id := dag.TaskID(fmt.Sprintf("work%03d", i))
			w.Add(&dag.Task{ID: id, Cores: 1, NominalDur: 60})
			if err := w.AddEdge("prep", id); err != nil {
				t.Fatal(err)
			}
		}
		w.Add(&dag.Task{ID: "gather", Cores: 1, NominalDur: 30})
		for i := 0; i < 500; i++ {
			if err := w.AddEdge(dag.TaskID(fmt.Sprintf("work%03d", i)), "gather"); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	base := &StreamingEnv{KubernetesEnv{Nodes: 4, CoresPerNode: 8}}
	r0, err := base.RunSeeded(build(), randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// 4×8 = 32 cores; any window above that must reproduce the unthrottled
	// schedule on this shape-uniform workload.
	for _, window := range []int{33, 64, 200} {
		_, cl, err := base.substrate()
		if err != nil {
			t.Fatal(err)
		}
		x, err := dag.NewWorkflowExpander(build())
		if err != nil {
			t.Fatal(err)
		}
		runner := &rm.StreamRunner{Manager: rm.NewTaskManager(cl, nil), MaxResident: window}
		r := &Result{Environment: base.Name()}
		if err := runStream(runner, x, cl, new(faultArm), nil, r); err != nil {
			t.Fatal(err)
		}
		if r.Fingerprint() != r0.Fingerprint() {
			t.Fatalf("window %d diverged:\n got  %s\n want %s", window, r.Fingerprint(), r0.Fingerprint())
		}
	}
}

// Streaming runs reject CWS strategies (they need the whole DAG) and keep
// no provenance, so -trace and -provenance refuse their results.
func TestStreamingEnvContract(t *testing.T) {
	env := &StreamingEnv{KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}}}
	if _, err := env.RunSeeded(streamTestWorkflow(1), randx.New(1)); err == nil ||
		!strings.Contains(err.Error(), "CWS strategies") {
		t.Fatalf("strategy not rejected: %v", err)
	}

	ok := &StreamingEnv{KubernetesEnv{Nodes: 4, CoresPerNode: 8}}
	w := streamTestWorkflow(2)
	res, err := ok.RunSeeded(w, randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != w.Len() {
		t.Fatalf("ran %d of %d tasks", res.TasksRun, w.Len())
	}
	if res.Provenance != nil {
		t.Fatalf("Provenance is %T, want nil", res.Provenance)
	}
}
