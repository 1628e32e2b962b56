package core

// Warm-run session battery: (1) a warm session's results are bit-identical
// to a new session's over representative env shapes and every chaos profile;
// (2) the dirty-state auditor passes after real runs under every chaos
// profile; (3) the auditor is live — deliberately leaked state (an armed
// fault-injection predicate, a downed node, a stale runner field, a drawn
// RNG fork) is caught and reported by its field path.

import (
	"fmt"
	"strings"
	"testing"

	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
)

// sessionTestEnvs are the env shapes of the session battery: the five
// Kubernetes shapes under faults, plus the HPC pilot and the cloud fleet,
// whose sessions rebuild their substrate per run, on fault-free runs.
func sessionTestEnvs(t *testing.T, faults fault.Profile) map[string]Environment {
	t.Helper()
	envs := map[string]Environment{
		"fifo":     &KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: faults},
		"cws":      &KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}, Faults: faults},
		"filesize": &KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.FileSize{}, Faults: faults},
		"heft":     &KubernetesEnv{Nodes: 2, Heterogeneous: true, Strategy: cwsi.HEFT{}, Faults: faults},
		"predict":  &KubernetesEnv{Nodes: 2, Heterogeneous: true, Strategy: cwsi.Baseline{}, Predict: "lotaru", Faults: faults},
	}
	if !faults.Enabled() {
		envs["hpc"] = &HPCEnv{Nodes: 4, CoresPerNode: 8, BootstrapSec: 85}
		envs["cloud"] = &CloudEnv{MaxInstances: 4}
	}
	return envs
}

func sessionTestWorkflow(seed int64) (*dag.Workflow, *randx.Source) {
	rng := randx.New(seed)
	opts := dag.GenOpts{MeanDur: 300, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	return dag.MontageLike(rng, 8, opts), rng
}

func allProfiles(t *testing.T) map[string]fault.Profile {
	t.Helper()
	out := map[string]fault.Profile{"none": {}}
	for _, name := range []string{"mtbf", "spot", "storm"} {
		p, err := fault.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = p
	}
	return out
}

// TestSessionWarmMatchesCold runs the same (workflow, seed) jobs through a
// reused session and through a new session per run (Run) and requires
// identical result fingerprints — across FIFO, CWS, and prediction-loop envs, with and
// without the storm profile, and with the warm session deliberately
// alternating seeds so every run after the first starts from a reset.
func TestSessionWarmMatchesCold(t *testing.T) {
	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	for _, faults := range []fault.Profile{{}, storm} {
		for name, env := range sessionTestEnvs(t, faults) {
			sess, err := env.NewSession()
			if err != nil {
				t.Fatalf("%s/%s: NewSession: %v", name, faults.Name, err)
			}
			for _, seed := range []int64{1, 7, 1, 42, 7} {
				w, rng := sessionTestWorkflow(seed)
				warm, err := sess.RunSeeded(w, rng.Fork())
				if err != nil {
					t.Fatalf("%s/%s seed %d warm: %v", name, faults.Name, seed, err)
				}
				wc, rngC := sessionTestWorkflow(seed)
				cold, err := Run(env, wc, rngC.Fork())
				if err != nil {
					t.Fatalf("%s/%s seed %d cold: %v", name, faults.Name, seed, err)
				}
				if wf, cf := warm.Fingerprint(), cold.Fingerprint(); wf != cf {
					t.Errorf("%s/%s seed %d:\n warm %s\n cold %s", name, faults.Name, seed, wf, cf)
				}
			}
		}
	}
}

// TestSessionAuditCleanAfterChaos runs each env shape under every chaos
// profile and audits the session afterwards: the post-Reset state must be
// field-for-field identical to a fresh construction.
func TestSessionAuditCleanAfterChaos(t *testing.T) {
	for pname, faults := range allProfiles(t) {
		for ename, env := range sessionTestEnvs(t, faults) {
			sess, err := env.NewSession()
			if err != nil {
				t.Fatalf("%s/%s: NewSession: %v", ename, pname, err)
			}
			for _, seed := range []int64{3, 11} {
				w, rng := sessionTestWorkflow(seed)
				if _, err := sess.RunSeeded(w, rng.Fork()); err != nil {
					t.Fatalf("%s/%s seed %d: %v", ename, pname, seed, err)
				}
			}
			if diffs := sess.Audit(); len(diffs) > 0 {
				t.Errorf("%s/%s: %d leaked paths after reset:\n  %s",
					ename, pname, len(diffs), strings.Join(diffs, "\n  "))
			}
		}
	}
}

// auditableSession builds a CWS session, runs one storm-profile workflow on
// it, and resets it — the clean post-reset state the negative tests then
// sabotage.
func auditableSession(t *testing.T) *Session {
	t.Helper()
	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	env := &KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}, Faults: storm}
	rs, err := env.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s := rs.(*Session)
	w, rng := sessionTestWorkflow(5)
	if _, err := s.RunSeeded(w, rng.Fork()); err != nil {
		t.Fatal(err)
	}
	s.reset()
	s.cws.Reset(s.strat, nil)
	if diffs := s.auditDiff(); len(diffs) > 0 {
		t.Fatalf("precondition: reset session not clean:\n  %s", strings.Join(diffs, "\n  "))
	}
	return s
}

func requirePath(t *testing.T, diffs []string, fragment string) {
	t.Helper()
	if len(diffs) == 0 {
		t.Fatalf("audit reported clean, want a leak naming %q", fragment)
	}
	for _, d := range diffs {
		if strings.Contains(d, fragment) {
			return
		}
	}
	t.Fatalf("no audit line names %q; got:\n  %s", fragment, strings.Join(diffs, "\n  "))
}

// TestSessionAuditCatchesLeakedInjector sabotages a reset CWS session with
// an armed transient-failure plan on the runner that drives its attempts —
// the canonical "injector field survived Reset" bug — and requires the
// audit to fail naming the runner's FailPlan path.
func TestSessionAuditCatchesLeakedInjector(t *testing.T) {
	s := auditableSession(t)
	s.runner.FailPlan = func(int) int { return 1 }
	requirePath(t, s.auditDiff(), "runner.FailPlan")
}

// TestSessionAuditCatchesLeakedInjectorState arms the session's reused
// injector after reset — an injector that kept its per-run state — and
// requires the audit to name it.
func TestSessionAuditCatchesLeakedInjectorState(t *testing.T) {
	s := auditableSession(t)
	s.arm.inj.Reset(randx.New(5))
	s.arm.inj.Start()
	requirePath(t, s.auditDiff(), "arm.inj")
}

// TestSessionAuditCatchesLeakedNodeState downs a node after reset and
// requires the audit to name the node's state path.
func TestSessionAuditCatchesLeakedNodeState(t *testing.T) {
	s := auditableSession(t)
	s.cl.FailNode(s.cl.Nodes()[0])
	requirePath(t, s.auditDiff(), "down")
}

// TestSessionAuditCatchesLeakedForkState draws from a session-owned fork
// after reset — a fork pool that forgot to truncate — and requires the audit
// to name the fork pool.
func TestSessionAuditCatchesLeakedForkState(t *testing.T) {
	s := auditableSession(t)
	s.forks.fork(randx.New(5)).Float64()
	requirePath(t, s.auditDiff(), "forks")
}

// TestSessionAuditCatchesLeakedRunnerState plants a stale fault plan on a
// FIFO session's runner and requires the audit to name it.
func TestSessionAuditCatchesLeakedRunnerState(t *testing.T) {
	env := &KubernetesEnv{Nodes: 4, CoresPerNode: 8}
	rs, err := env.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s := rs.(*Session)
	w, rng := sessionTestWorkflow(9)
	if _, err := s.RunSeeded(w, rng.Fork()); err != nil {
		t.Fatal(err)
	}
	s.reset()
	s.runner.FailPlan = func(int) int { return 2 }
	requirePath(t, s.auditDiff(), "FailPlan")
}

// A positive residency window (rm.StreamRunner.MaxResident) must not change
// a session's schedule when the ready cohorts are shape-uniform and the
// window exceeds cluster concurrency — the bounded-window contract
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
	env := &KubernetesEnv{Nodes: 4, CoresPerNode: 8}
	r0, err := Run(env, build(), randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// 4×8 = 32 cores; any window above that must reproduce the unthrottled
	// schedule on this shape-uniform workload.
	for _, window := range []int{33, 64, 200} {
		rs, err := env.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		s := rs.(*Session)
		s.runner.MaxResident = window // a first run starts without a reset
		r, err := s.RunSeeded(build(), randx.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if peak := s.runner.PeakResident(); peak > window {
			t.Fatalf("window %d: %d tasks resident at once", window, peak)
		}
		if r.Fingerprint() != r0.Fingerprint() {
			t.Fatalf("window %d diverged:\n got  %s\n want %s", window, r.Fingerprint(), r0.Fingerprint())
		}
	}
}
