package compose

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"hhcw/internal/cluster"
	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/steady"
)

// lazyTestRegistry resolves "montage" to a seeded montage-shaped workflow.
func lazyTestRegistry() *Registry {
	reg := NewRegistry()
	reg.Register("montage", ParamFunc(func(p map[string]string) (*dag.Workflow, error) {
		seed, err := strconv.ParseInt(p["seed"], 10, 64)
		if err != nil {
			return nil, err
		}
		opts := dag.GenOpts{MeanDur: 300, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9}
		return dag.MontageLike(randx.New(seed), 8, opts), nil
	}))
	return reg
}

// lazyTestRoot chains two montage references, so the second expands only
// once the first has settled.
func lazyTestRoot(seed int64) *dag.Workflow {
	w := dag.New("root")
	w.Add(dag.WorkflowRef("a", "montage", map[string]string{"seed": strconv.FormatInt(seed, 10)}))
	b := dag.WorkflowRef("b", "montage", map[string]string{"seed": strconv.FormatInt(seed+1, 10)})
	b.Deps = []dag.TaskID{"a"}
	w.Add(b)
	return w
}

func lazyTestEnv(reg *Registry, faults fault.Profile) *LazyEnv {
	return &LazyEnv{KubernetesEnv: core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: faults}, Registry: reg}
}

// Lazy runs reject the CWS and the prediction loop (both need the whole DAG)
// with named errors before any engine is built, run every task of the
// expansion, and keep no provenance, so -trace and -provenance refuse their
// results.
func TestLazyEnvContract(t *testing.T) {
	reg := lazyTestRegistry()
	for _, c := range []struct {
		name string
		env  core.KubernetesEnv
		want string
	}{
		// Nodes 0 would fail the substrate: the named error must come first.
		{"cws", core.KubernetesEnv{Strategy: cwsi.Rank{}}, "do not support CWS strategies"},
		{"predict", core.KubernetesEnv{Predict: "lotaru"}, "do not support the prediction loop"},
	} {
		env := &LazyEnv{KubernetesEnv: c.env, Registry: reg}
		if _, err := env.NewSession(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewSession error %v, want %q", c.name, err, c.want)
		}
		if _, err := core.Run(env, lazyTestRoot(1), randx.New(1)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Run error %v, want %q", c.name, err, c.want)
		}
	}

	static, err := reg.Expand(lazyTestRoot(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(lazyTestEnv(reg, fault.Profile{}), lazyTestRoot(2), randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != static.Len() {
		t.Fatalf("ran %d of %d tasks", res.TasksRun, static.Len())
	}
	if res.Provenance != nil {
		t.Fatalf("Provenance is %T, want nil", res.Provenance)
	}
}

// plantNodeDownSubscriber registers a node-down callback on the session's
// cluster, which no reset removes: the leak a run that subscribed afresh
// each time would leave behind. The cluster is unexported, so it is reached
// by reflection, as the auditor reaches it.
func plantNodeDownSubscriber(s *core.Session) {
	f := reflect.ValueOf(s).Elem().FieldByName("cl")
	cl := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface().(*cluster.Cluster)
	cl.OnNodeDown(func(*cluster.Node) {})
}

// A LazyEnv session is the warm core.Session: reused across seeds it matches
// a new session's first run bit for bit, fault-free and under storm, its
// Audit is clean afterwards, and a leak planted after the runs is named by
// its field path.
func TestLazySessionWarmAudited(t *testing.T) {
	reg := lazyTestRegistry()
	for _, faults := range []fault.Profile{{}, fault.Storm()} {
		env := lazyTestEnv(reg, faults)
		rs, err := env.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		s, ok := rs.(*core.Session)
		if !ok {
			t.Fatalf("%q: LazyEnv session is %T, want the warm *core.Session", faults.Name, rs)
		}
		failed := 0
		for _, seed := range []int64{1, 7, 1, 42, 7} {
			warm, err := s.RunSeeded(lazyTestRoot(seed), randx.New(seed))
			if err != nil {
				t.Fatalf("%q seed %d warm: %v", faults.Name, seed, err)
			}
			cold, err := core.Run(env, lazyTestRoot(seed), randx.New(seed))
			if err != nil {
				t.Fatalf("%q seed %d cold: %v", faults.Name, seed, err)
			}
			if wf, cf := warm.Fingerprint(), cold.Fingerprint(); wf != cf {
				t.Errorf("%q seed %d:\n warm %s\n cold %s", faults.Name, seed, wf, cf)
			}
			failed += warm.FailedAttempts + warm.NodeFailures
		}
		if faults.Enabled() && failed == 0 {
			t.Fatalf("storm failed nothing over five runs; the audit would be vacuous")
		}
		if diffs := s.Audit(); len(diffs) > 0 {
			t.Errorf("%q: %d leaked paths after reset:\n  %s", faults.Name, len(diffs), strings.Join(diffs, "\n  "))
		}
		plantNodeDownSubscriber(s)
		diffs := s.Audit()
		named := false
		for _, d := range diffs {
			named = named || strings.Contains(d, "core.Session.cl.onNodeDown")
		}
		if !named {
			t.Errorf("%q: audit did not name the planted subscriber; got %q", faults.Name, diffs)
		}
	}
}

// A warm lazy run reuses the engine, cluster, manager, runner and fault
// layer, so it allocates fewer objects than a cold run of the same seed,
// which builds them all.
func TestLazySessionWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	env := lazyTestEnv(lazyTestRegistry(), fault.Storm())
	sess, err := env.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	root, rng := lazyTestRoot(4), new(randx.Source)
	run := func(runSeeded func(*dag.Workflow, *randx.Source) (*core.Result, error)) func() {
		return func() {
			if _, err := runSeeded(root, rng.Reseed(4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cold := steady.AllocsPerRun(20, run(func(w *dag.Workflow, rng *randx.Source) (*core.Result, error) {
		return core.Run(env, w, rng)
	}))
	warm := steady.AllocsPerRun(20, run(sess.RunSeeded))
	t.Logf("allocations per lazy storm run: warm %.0f, cold %.0f", warm, cold)
	if warm >= cold {
		t.Errorf("warm lazy run allocates %.0f objects, cold %.0f: the session rebuilt its substrate", warm, cold)
	}
}
