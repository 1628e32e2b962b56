package sweep

// Workflow sharing: Run generates each (workflow, seed) workflow once and
// runs every env on it. These tests pin that against the one-workflow-per-
// simulation way — reseed, generate, fork, run — on every substrate, and
// check that no env mutates the workflow it shares.

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"hhcw/internal/compose"
	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
)

// referenceRun runs each (workflow, env, seed) simulation on its own:
// a source seeded from the seed, a workflow generated from it, the run's
// source forked from it, and a fresh environment.
func referenceRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep := &Report{}
	for _, ws := range cfg.Workflows {
		for _, es := range cfg.Envs {
			for _, seed := range cfg.Seeds {
				rng := randx.New(seed)
				w := ws.Gen(rng)
				res, err := core.Run(es.New(), w, rng.Fork())
				if err != nil {
					t.Fatalf("reference %s on %s seed %d: %v", ws.Name, es.Name, seed, err)
				}
				r := *res
				r.Provenance = nil
				rep.Runs = append(rep.Runs, RunResult{Workflow: ws.Name, Env: es.Name, Seed: seed, Result: r})
			}
		}
	}
	return rep
}

// digestWorkflow renders every task field (Deps among them), in insertion
// order, and the topological order the successor lists give.
func digestWorkflow(w *dag.Workflow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%d\n", w.Name, w.Len(), w.EdgeCount())
	for i := 0; i < w.Len(); i++ {
		t := w.At(i)
		fmt.Fprintf(&b, "%+v\n", *t)
	}
	order, err := w.TopoOrder()
	fmt.Fprintf(&b, "%v ->", err)
	for _, t := range order {
		b.WriteString(" " + string(t.ID))
	}
	return b.String()
}

// checkUnchanged runs fn and fails t if it changed w.
func checkUnchanged(t *testing.T, env string, w *dag.Workflow, fn func() (*core.Result, error)) (*core.Result, error) {
	before := digestWorkflow(w)
	res, err := fn()
	if after := digestWorkflow(w); after != before {
		t.Errorf("env %s mutated workflow %s:\nbefore:\n%s\nafter:\n%s", env, w.Name, before, after)
	}
	return res, err
}

// guardedEnv wraps an env's sessions in guardedSession, which adds the
// mutation check to every run.
type guardedEnv struct {
	t     *testing.T
	inner core.Environment
}

func (g *guardedEnv) NewSession() (core.RunSession, error) {
	s, err := g.inner.NewSession()
	if err != nil {
		return nil, err
	}
	return &guardedSession{t: g.t, RunSession: s}, nil
}

type guardedSession struct {
	t *testing.T
	core.RunSession
}

func (g *guardedSession) RunSeeded(w *dag.Workflow, rng *randx.Source) (*core.Result, error) {
	return checkUnchanged(g.t, g.Name(), w, func() (*core.Result, error) { return g.RunSession.RunSeeded(w, rng) })
}

func guarded(t *testing.T, spec EnvSpec) EnvSpec {
	return EnvSpec{
		Name: spec.Name,
		New:  func() core.Environment { return &guardedEnv{t: t, inner: spec.New()} },
	}
}

// counted wraps each spec's Gen with a shared call counter.
func counted(specs []WorkflowSpec, calls *atomic.Int64) []WorkflowSpec {
	out := make([]WorkflowSpec, len(specs))
	for i, s := range specs {
		gen := s.Gen
		out[i] = WorkflowSpec{Name: s.Name, Gen: func(r *randx.Source) *dag.Workflow {
			calls.Add(1)
			return gen(r)
		}}
	}
	return out
}

// shareRegistry holds a two-level entry: "pair" references two "layer"
// instances, the second after the first.
func shareRegistry() *compose.Registry {
	opts := dag.GenOpts{MeanDur: 200, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	reg := compose.NewRegistry()
	reg.Register("layer", compose.ParamFunc(func(p map[string]string) (*dag.Workflow, error) {
		seed, err := strconv.ParseInt(p["seed"], 10, 64)
		if err != nil {
			return nil, err
		}
		return dag.RandomLayered(randx.New(seed), 3, 4, opts), nil
	}))
	reg.Register("pair", compose.ParamFunc(func(p map[string]string) (*dag.Workflow, error) {
		seed, err := strconv.ParseInt(p["seed"], 10, 64)
		if err != nil {
			return nil, err
		}
		w := dag.New("pair")
		w.Add(dag.WorkflowRef("a", "layer", map[string]string{"seed": strconv.FormatInt(seed, 10)}))
		b := dag.WorkflowRef("b", "layer", map[string]string{"seed": strconv.FormatInt(seed+1, 10)})
		b.Deps = []dag.TaskID{"a"}
		w.Add(b)
		return w, nil
	}))
	return reg
}

func pairRoot(seed int64) *dag.Workflow {
	w := dag.New("pair")
	w.Add(dag.WorkflowRef("run", "pair", map[string]string{"seed": strconv.FormatInt(seed, 10)}))
	return w
}

// TestRunSharesWorkflowAcrossEnvs requires Run's report to equal the
// per-simulation reference at workers 1 and 4 on every substrate, with one
// Gen call per (workflow, seed) and no env mutating the shared workflow.
func TestRunSharesWorkflowAcrossEnvs(t *testing.T) {
	reg := shareRegistry()
	k8s := func(faults fault.Profile) EnvSpec {
		return EnvSpec{Name: "k8s", New: func() core.Environment {
			return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: faults}
		}}
	}
	lazy := func(faults fault.Profile) EnvSpec {
		return EnvSpec{Name: "lazy", New: func() core.Environment {
			return &compose.LazyEnv{
				KubernetesEnv: core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: faults},
				Registry:      reg,
			}
		}}
	}
	stormK8s, stormLazy := k8s(fault.Storm()), lazy(fault.Storm())
	stormK8s.Name, stormLazy.Name = "k8s-storm", "lazy-storm"
	// Each worker reuses one warm core.Session for a lazy env too.
	s, err := newEnvSession(stormLazy)
	if err != nil {
		t.Fatal(err)
	}
	if _, warm := s.(*core.Session); !warm {
		t.Fatalf("lazy env's worker session is %T, want the warm *core.Session", s)
	}
	cases := []struct {
		name      string
		workflows []WorkflowSpec
		envs      []EnvSpec
	}{
		{
			name:      "substrates",
			workflows: allWorkflows(),
			envs: append(allEnvs(),
				EnvSpec{Name: "lotaru", New: func() core.Environment {
					return &core.KubernetesEnv{Nodes: 2, Heterogeneous: true, Strategy: cwsi.Baseline{}, Predict: "lotaru"}
				}},
				EnvSpec{Name: "k8s-cws-storm", New: func() core.Environment {
					return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}, Faults: fault.Storm()}
				}},
			),
		},
		{
			name: "registry-static",
			workflows: []WorkflowSpec{{Name: "pair", Gen: func(r *randx.Source) *dag.Workflow {
				w, err := reg.Expand(pairRoot(r.Int63()))
				if err != nil {
					panic(err)
				}
				return w
			}}},
			envs: []EnvSpec{k8s(fault.Profile{}), stormK8s, lazy(fault.Profile{})},
		},
		{
			name: "registry-lazy",
			workflows: []WorkflowSpec{{Name: "pair", Gen: func(r *randx.Source) *dag.Workflow {
				return pairRoot(r.Int63())
			}}},
			envs: []EnvSpec{lazy(fault.Profile{}), stormLazy},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Workflows: c.workflows, Envs: c.envs, Seeds: Seeds(1, 5)}
			want := referenceRun(t, cfg).Fingerprint()
			for i := range cfg.Envs {
				cfg.Envs[i] = guarded(t, cfg.Envs[i])
			}
			for _, workers := range []int{1, 4} {
				var gens atomic.Int64
				cfg.Workflows = counted(c.workflows, &gens)
				cfg.Workers = workers
				rep, err := Run(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := rep.Fingerprint(); got != want {
					t.Errorf("workers=%d: report differs from the per-simulation reference:\n%s\nwant\n%s", workers, got, want)
				}
				if n, wantN := gens.Load(), int64(len(cfg.Workflows)*len(cfg.Seeds)); n != wantN {
					t.Errorf("workers=%d: %d Gen calls, want %d", workers, n, wantN)
				}
			}
		})
	}
}
