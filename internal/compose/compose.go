// Package compose is the cross-subsystem composition spine: every workflow
// subsystem in the repo — the Transcriptomics Atlas pipeline (§5), EnTK/ExaAM
// ensembles (§4), JAWS mini-WDL workflows (§6), LLM-composed templates (§2),
// and CWS multi-tenant workloads (§3) — compiles to the same dag.Workflow
// through the Compiler interface, and compiled workflows embed into each
// other with namespaced task IDs, output→input data-flow stitching, and
// post-embed validation. A composed workflow (e.g. the Atlas salmon pipeline
// feeding an EnTK UQ ensemble) is just another dag.Workflow executed through
// a core.Environment's session, so it inherits fault injection, retry
// policy, provenance, tracing, and sweep determinism for free.
package compose

import (
	"fmt"
	"strings"

	"hhcw/internal/dag"
)

// Compiler compiles a subsystem-specific workflow description into an
// executable DAG. It is implemented by atlas.PipelineSpec, entk.Pipeline,
// jaws.WorkflowDef, llmwf.WorkflowTemplate, and cwsi.Workload — and by
// dag.Workflow itself via Workflow (the identity compiler), so already-built
// DAGs compose like everything else.
type Compiler interface {
	Compile() (*dag.Workflow, error)
}

// Workflow is the identity Compiler: an already-built DAG, revalidated at
// compile time.
type Workflow struct{ W *dag.Workflow }

// Compile implements Compiler.
func (c Workflow) Compile() (*dag.Workflow, error) {
	if c.W == nil {
		return nil, fmt.Errorf("compose: nil workflow")
	}
	if err := c.W.Validate(); err != nil {
		return nil, err
	}
	return c.W, nil
}

// Func adapts a generator function to the Compiler interface.
type Func func() (*dag.Workflow, error)

// Compile implements Compiler.
func (f Func) Compile() (*dag.Workflow, error) { return f() }

// CollisionError reports a namespaced task-ID collision during embedding:
// the destination workflow already holds a task with an ID the embedding
// would produce. Recursive expansion surfaces these when a plain task's ID
// overlaps a sibling ref's namespace ("uq/fit" next to a ref "uq" that also
// expands a "fit"), so callers get the namespace and offending ID as data,
// not just prose.
type CollisionError struct {
	Namespace string     // namespace sub was embedded under ("" for the root scope)
	TaskID    dag.TaskID // the colliding (already namespaced) task ID
	Workflow  string     // destination workflow name
	Sub       string     // sub-workflow being embedded
}

func (e *CollisionError) Error() string {
	return fmt.Sprintf("compose: task ID collision: %q already in workflow %q (embed %q under a distinct namespace)",
		e.TaskID, e.Workflow, e.Sub)
}

// Embed copies every task of sub into dst under the namespace ns: task IDs
// become "ns/<id>" and internal dependency edges are rewritten to match.
// Each of sub's root tasks additionally gains dependencies on the `after`
// tasks of dst (the cross-workflow barrier), and the data flow is stitched:
// a root's declared InputBytes grows by the OutputBytes of every `after`
// task, so schedulers and storage models see the bytes crossing the
// boundary. Embed returns the namespaced IDs of sub's leaves — the handle
// the next embedding stitches onto.
//
// Embed rejects empty sub-workflows, namespace collisions with tasks already
// in dst (reported as a *CollisionError), and `after` IDs that do not exist
// in dst. It does not validate
// acyclicity (stitching is incremental); callers run dst.Validate() once the
// composition is complete, as Compose does.
func Embed(dst *dag.Workflow, ns string, sub *dag.Workflow, after []dag.TaskID) ([]dag.TaskID, error) {
	if dst == nil || sub == nil {
		return nil, fmt.Errorf("compose: embed needs destination and sub-workflow")
	}
	if sub.Len() == 0 {
		return nil, fmt.Errorf("compose: sub-workflow %q is empty", sub.Name)
	}
	prefix := ""
	if ns != "" {
		prefix = ns + "/"
	}
	rename := func(id dag.TaskID) dag.TaskID { return dag.TaskID(prefix + string(id)) }
	for _, id := range after {
		if dst.Task(id) == nil {
			return nil, fmt.Errorf("compose: stitch source %q not in workflow %q", id, dst.Name)
		}
	}
	for _, t := range sub.Tasks() {
		if dst.Task(rename(t.ID)) != nil {
			return nil, &CollisionError{Namespace: ns, TaskID: rename(t.ID), Workflow: dst.Name, Sub: sub.Name}
		}
	}
	var inBytes float64
	for _, id := range after {
		inBytes += dst.Task(id).OutputBytes
	}
	for _, t := range sub.Tasks() {
		cp := *t // shallow copy; Params may be shared, tasks never mutate them
		cp.ID = rename(t.ID)
		cp.Deps = make([]dag.TaskID, 0, len(t.Deps)+len(after))
		for _, d := range t.Deps {
			cp.Deps = append(cp.Deps, rename(d))
		}
		if len(t.Deps) == 0 { // a root of sub: barrier + data-flow stitch
			cp.Deps = append(cp.Deps, after...)
			cp.InputBytes += inBytes
		}
		dst.Add(&cp)
	}
	var leaves []dag.TaskID
	for _, t := range sub.Leaves() {
		leaves = append(leaves, rename(t.ID))
	}
	return leaves, nil
}

// Stitch adds an explicit cross-stage data-flow edge to a composed workflow:
// `to` waits for `from` and inherits its output bytes as input. Like Embed,
// it defers cycle detection to Validate.
func Stitch(w *dag.Workflow, from, to dag.TaskID) error {
	if err := w.AddEdge(from, to); err != nil {
		return fmt.Errorf("compose: %w", err)
	}
	w.Task(to).InputBytes += w.Task(from).OutputBytes
	return nil
}

// Stage is one sub-workflow of a composition.
type Stage struct {
	// Name is the stage's namespace: every task ID of the compiled
	// sub-workflow is prefixed with "<Name>/".
	Name string
	// From compiles the stage's sub-workflow.
	From Compiler
	// After lists stage names whose leaf outputs feed this stage's roots.
	// Empty means the stage starts immediately (a composition root).
	After []string
}

// Compose compiles every stage and embeds them into one validated workflow:
// a DAG of sub-workflows, each from any subsystem. Stages are embedded in
// dependency order; each stage's roots depend on the leaves of every stage
// it is declared After, with output→input byte stitching at each boundary.
// The result is an ordinary dag.Workflow — run it through any
// core.Environment.
func Compose(name string, stages ...Stage) (*dag.Workflow, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("compose: workflow %q has no stages", name)
	}
	byName := map[string]int{}
	for i, s := range stages {
		if s.Name == "" {
			return nil, fmt.Errorf("compose: stage %d of %q has no name", i, name)
		}
		if strings.Contains(s.Name, "/") {
			return nil, fmt.Errorf("compose: stage name %q contains '/' (reserved as the namespace separator)", s.Name)
		}
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("compose: duplicate stage name %q", s.Name)
		}
		if s.From == nil {
			return nil, fmt.Errorf("compose: stage %q has no compiler", s.Name)
		}
		byName[s.Name] = i
	}
	for _, s := range stages {
		for _, a := range s.After {
			if _, ok := byName[a]; !ok {
				return nil, fmt.Errorf("compose: stage %q is after unknown stage %q", s.Name, a)
			}
		}
	}
	// Kahn over stages, declaration order as tie-break, so embedding order —
	// and therefore task insertion order and every downstream deterministic
	// iteration — is a pure function of the stage list.
	indeg := make([]int, len(stages))
	children := make([][]int, len(stages))
	for i, s := range stages {
		indeg[i] = len(s.After)
		for _, a := range s.After {
			children[byName[a]] = append(children[byName[a]], i)
		}
	}
	var order []int
	ready := make([]int, 0, len(stages))
	for i := range stages {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		order = append(order, i)
		for _, c := range children[i] {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if len(order) != len(stages) {
		return nil, fmt.Errorf("compose: workflow %q has a cycle between stages", name)
	}

	w := dag.New(name)
	leavesOf := map[string][]dag.TaskID{}
	for _, i := range order {
		s := stages[i]
		sub, err := s.From.Compile()
		if err != nil {
			return nil, fmt.Errorf("compose: stage %q: %w", s.Name, err)
		}
		var after []dag.TaskID
		for _, a := range s.After {
			after = append(after, leavesOf[a]...)
		}
		leaves, err := Embed(w, s.Name, sub, after)
		if err != nil {
			return nil, fmt.Errorf("compose: stage %q: %w", s.Name, err)
		}
		leavesOf[s.Name] = leaves
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("compose: workflow %q: %w", name, err)
	}
	return w, nil
}

// Pipeline is the common linear case: each stage feeds the next.
func Pipeline(name string, stages ...Stage) (*dag.Workflow, error) {
	for i := range stages {
		if i > 0 && len(stages[i].After) == 0 {
			stages[i].After = []string{stages[i-1].Name}
		}
	}
	return Compose(name, stages...)
}
