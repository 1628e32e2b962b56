package core

import (
	"testing"
	"testing/quick"

	"hhcw/internal/dag"
	"hhcw/internal/randx"
)

// randomTree builds a random composition tree of bounded depth.
func randomTree(rng *randx.Source, depth int) Node {
	if depth <= 0 || rng.Bernoulli(0.4) {
		return Task("leaf", WithDuration(rng.Uniform(1, 100)), WithCores(1+rng.Intn(4)))
	}
	switch rng.Intn(4) {
	case 0:
		n := 1 + rng.Intn(3)
		kids := make([]Node, n)
		for i := range kids {
			kids[i] = randomTree(rng, depth-1)
		}
		return Sequence(kids...)
	case 1:
		n := 1 + rng.Intn(3)
		kids := make([]Node, n)
		for i := range kids {
			kids[i] = randomTree(rng, depth-1)
		}
		return Parallel(kids...)
	case 2:
		return Scatter(1+rng.Intn(4), func(i int) Node { return randomTree(rng, depth-1) })
	default:
		return Sub("sub", randomTree(rng, depth-1))
	}
}

// Property: every random composition compiles to a valid, acyclic DAG whose
// critical path is positive and no larger than total work.
func TestRandomCompositionsCompileValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		w, err := Compile("rand", randomTree(rng, 4))
		if err != nil {
			return false
		}
		if err := w.Validate(); err != nil {
			return false
		}
		cp, _ := w.CriticalPath(dag.NominalDur)
		sum := 0.0
		for _, task := range w.Tasks() {
			sum += task.NominalDur
		}
		return cp > 0 && cp <= sum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: compilation is deterministic — same seed, same DAG.
func TestCompileDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		build := func() *dag.Workflow {
			w, err := Compile("d", randomTree(randx.New(seed), 4))
			if err != nil {
				return nil
			}
			return w
		}
		a, b := build(), build()
		if a == nil || b == nil {
			return a == b
		}
		ta, tb := a.Tasks(), b.Tasks()
		if len(ta) != len(tb) {
			return false
		}
		for i := range ta {
			if ta[i].ID != tb[i].ID || ta[i].NominalDur != tb[i].NominalDur {
				return false
			}
			if len(ta[i].Deps) != len(tb[i].Deps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: sequencing two fragments never shortens the critical path below
// the sum of the fragments' critical paths.
func TestSequenceCriticalPathAdditive(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		a := randomTree(rng.Fork(), 3)
		b := randomTree(rng.Fork(), 3)
		wa, err := Compile("a", a)
		if err != nil {
			return false
		}
		wb, err := Compile("b", b)
		if err != nil {
			return false
		}
		// Fresh trees for the combined compile (Node trees are reusable,
		// but generate identically for determinism).
		rng2 := randx.New(seed)
		a2 := randomTree(rng2.Fork(), 3)
		b2 := randomTree(rng2.Fork(), 3)
		wab, err := Compile("ab", Sequence(a2, b2))
		if err != nil {
			return false
		}
		ca, _ := wa.CriticalPath(dag.NominalDur)
		cb, _ := wb.CriticalPath(dag.NominalDur)
		cab, _ := wab.CriticalPath(dag.NominalDur)
		return cab >= ca+cb-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: executing any random composition on the Kubernetes environment
// completes all tasks with makespan ≥ critical path.
func TestRandomCompositionExecutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		w, err := Compile("exec", randomTree(rng, 3))
		if err != nil {
			return false
		}
		env := &KubernetesEnv{Nodes: 4, CoresPerNode: 8}
		res, err := Run(env, w, randx.New(1))
		if err != nil {
			return false
		}
		cp, _ := w.CriticalPath(dag.NominalDur)
		return res.TasksRun == w.Len() && res.MakespanSec >= cp-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
