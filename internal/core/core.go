// Package core is the library's public face: composable workflows for
// hyper-heterogeneous computing environments. Workflows are built from
// composition operators (Task, Sequence, Parallel, Scatter, Sub), compiled
// to a DAG, and executed on interchangeable environments — a Kubernetes-like
// cluster with Common-Workflow-Scheduler awareness (§3), a pilot-based HPC
// allocation (§4), or an elastic cloud fleet (§5) — without changing the
// workflow definition. This is the paper's thesis rendered as an API:
// composition and execution concerns are orthogonal.
package core

import (
	"fmt"

	"hhcw/internal/dag"
)

// Node is a composable workflow fragment. Composition operators return
// Nodes; Compile flattens a Node tree into an executable DAG.
type Node interface {
	// build adds the fragment's tasks to w, wiring deps as dependencies of
	// the fragment's entry tasks, and returns the fragment's exit task IDs.
	build(w *dag.Workflow, ns string, deps []dag.TaskID) ([]dag.TaskID, error)
}

// TaskOption configures a task node.
type TaskOption func(*dag.Task)

// WithCores sets the task's core request.
func WithCores(n int) TaskOption { return func(t *dag.Task) { t.Cores = n } }

// WithGPUs sets the task's GPU request.
func WithGPUs(n int) TaskOption { return func(t *dag.Task) { t.GPUs = n } }

// WithMemory sets the task's memory request in bytes.
func WithMemory(b float64) TaskOption { return func(t *dag.Task) { t.MemBytes = b } }

// WithDuration sets the task's nominal duration in seconds on the reference
// machine.
func WithDuration(sec float64) TaskOption { return func(t *dag.Task) { t.NominalDur = sec } }

// WithIOFraction sets the share of the duration that is I/O-bound.
func WithIOFraction(f float64) TaskOption { return func(t *dag.Task) { t.IOFrac = f } }

// WithData sets declared input and output sizes in bytes.
func WithData(in, out float64) TaskOption {
	return func(t *dag.Task) { t.InputBytes, t.OutputBytes = in, out }
}

// WithParam attaches a task-specific parameter, which the CWS records with
// each attempt's provenance.
func WithParam(k, v string) TaskOption {
	return func(t *dag.Task) {
		if t.Params == nil {
			t.Params = map[string]string{}
		}
		t.Params[k] = v
	}
}

type taskNode struct {
	name string
	opts []TaskOption
}

// Task creates a leaf task. name doubles as the process name used by
// predictors and schedulers; IDs are namespaced automatically.
func Task(name string, opts ...TaskOption) Node {
	return &taskNode{name: name, opts: opts}
}

func (n *taskNode) build(w *dag.Workflow, ns string, deps []dag.TaskID) ([]dag.TaskID, error) {
	if n.name == "" {
		return nil, fmt.Errorf("core: task with empty name")
	}
	id := dag.TaskID(ns + n.name)
	if w.Task(id) != nil {
		return nil, fmt.Errorf("core: duplicate task id %q (name tasks uniquely within a fragment)", id)
	}
	t := &dag.Task{ID: id, Name: n.name, NominalDur: 60, Deps: deps}
	for _, o := range n.opts {
		o(t)
	}
	if t.NominalDur <= 0 {
		return nil, fmt.Errorf("core: task %q has non-positive duration", id)
	}
	w.Add(t)
	return []dag.TaskID{id}, nil
}

type seqNode struct{ children []Node }

// Sequence runs fragments one after another: each child's entry tasks depend
// on the previous child's exit tasks.
func Sequence(children ...Node) Node { return &seqNode{children: children} }

func (n *seqNode) build(w *dag.Workflow, ns string, deps []dag.TaskID) ([]dag.TaskID, error) {
	if len(n.children) == 0 {
		return deps, nil
	}
	cur := deps
	for i, c := range n.children {
		var err error
		cur, err = c.build(w, fmt.Sprintf("%sseq%d/", ns, i), cur)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

type parNode struct{ children []Node }

// Parallel runs fragments concurrently; the combined exits are the union of
// the children's exits.
func Parallel(children ...Node) Node { return &parNode{children: children} }

func (n *parNode) build(w *dag.Workflow, ns string, deps []dag.TaskID) ([]dag.TaskID, error) {
	var exits []dag.TaskID
	for i, c := range n.children {
		ex, err := c.build(w, fmt.Sprintf("%spar%d/", ns, i), deps)
		if err != nil {
			return nil, err
		}
		exits = append(exits, ex...)
	}
	return exits, nil
}

type scatterNode struct {
	n  int
	fn func(i int) Node
}

// Scatter expands a template fragment n times in parallel (WDL's scatter /
// the Atlas's independent per-file pipelines).
func Scatter(n int, fn func(i int) Node) Node { return &scatterNode{n: n, fn: fn} }

func (s *scatterNode) build(w *dag.Workflow, ns string, deps []dag.TaskID) ([]dag.TaskID, error) {
	if s.n <= 0 {
		return nil, fmt.Errorf("core: scatter width %d", s.n)
	}
	var exits []dag.TaskID
	for i := 0; i < s.n; i++ {
		ex, err := s.fn(i).build(w, fmt.Sprintf("%sshard%04d/", ns, i), deps)
		if err != nil {
			return nil, err
		}
		exits = append(exits, ex...)
	}
	return exits, nil
}

type subNode struct {
	name string
	root Node
}

// Sub embeds a named subworkflow, namespacing its task IDs.
func Sub(name string, root Node) Node { return &subNode{name: name, root: root} }

func (s *subNode) build(w *dag.Workflow, ns string, deps []dag.TaskID) ([]dag.TaskID, error) {
	return s.root.build(w, ns+s.name+"/", deps)
}

type whenNode struct {
	cond bool
	then Node
}

// When includes a fragment only if cond is true (WDL's conditional at
// composition time); otherwise it contributes nothing and passes
// dependencies through.
func When(cond bool, then Node) Node { return &whenNode{cond: cond, then: then} }

func (n *whenNode) build(w *dag.Workflow, ns string, deps []dag.TaskID) ([]dag.TaskID, error) {
	if !n.cond {
		return deps, nil
	}
	return n.then.build(w, ns+"when/", deps)
}

// Compile flattens a composition into a validated DAG.
func Compile(name string, root Node) (*dag.Workflow, error) {
	w := dag.New(name)
	if _, err := root.build(w, "", nil); err != nil {
		return nil, err
	}
	if w.Len() == 0 {
		return nil, fmt.Errorf("core: workflow %q is empty", name)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
