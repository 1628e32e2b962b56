package compose

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hhcw/internal/dag"
)

// ParamCompiler is a Compiler whose output is a function of binding
// parameters — the contract a registry entry implements so a dag.WorkflowRef
// can hand its Params through ("seed", ensemble sizes, shard counts).
// CompileWith must be deterministic: the same params must always produce the
// same workflow, structurally. That determinism is what makes static and
// lazy expansion interchangeable — both resolve the same (name, params) pair
// to the same template, whenever expansion happens.
type ParamCompiler interface {
	Compiler
	CompileWith(params map[string]string) (*dag.Workflow, error)
}

// ParamFunc adapts a parameterized generator function to ParamCompiler.
type ParamFunc func(params map[string]string) (*dag.Workflow, error)

// CompileWith implements ParamCompiler.
func (f ParamFunc) CompileWith(params map[string]string) (*dag.Workflow, error) { return f(params) }

// Compile implements Compiler (no params bound).
func (f ParamFunc) Compile() (*dag.Workflow, error) { return f(nil) }

// Registry is a catalog of named, reusable sub-workflows: every entry is a
// Compiler (any subsystem — atlas, entk, jaws, llmwf, cwsi, or a hand-built
// DAG), and a dag.WorkflowRef task names an entry to splice in. The registry
// is the resolution authority for both expansion modes: Expand splices
// references statically at compile time through Embed's namespacing, and
// Expander drives the same resolution lazily at runtime via dag.RefExpander.
//
// Resolved templates are prepared once per (name, params) binding — compiled,
// edge-inferred, validated — and cached under a mutex, so concurrent sweep
// workers share templates instead of recompiling per run. Cached templates
// are shared read-only; expansion always copies.
type Registry struct {
	// MaxDepth bounds reference nesting (0 = dag.DefaultMaxRefDepth).
	MaxDepth int

	mu      sync.Mutex
	entries map[string]Compiler
	cache   map[string]*dag.Workflow // RefKey -> prepared template
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]Compiler, 8),
		cache:   make(map[string]*dag.Workflow, 8),
	}
}

// Register adds a named entry. Like dag.Workflow.Add it panics on invalid or
// duplicate names — registry construction bugs should fail at build time.
// Names must not contain "/" (the namespace separator).
func (r *Registry) Register(name string, c Compiler) {
	if name == "" {
		panic("compose: registry entry with empty name")
	}
	if strings.Contains(name, "/") {
		panic(fmt.Sprintf("compose: registry name %q contains '/' (reserved as the namespace separator)", name))
	}
	if c == nil {
		panic(fmt.Sprintf("compose: registry entry %q has a nil compiler", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("compose: duplicate registry entry %q", name))
	}
	r.entries[name] = c
}

// Lookup returns the compiler registered under name, if any.
func (r *Registry) Lookup(name string) (Compiler, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.entries[name]
	return c, ok
}

// Names returns all registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (r *Registry) maxDepth() int {
	if r.MaxDepth > 0 {
		return r.MaxDepth
	}
	return dag.DefaultMaxRefDepth
}

// resolve returns the prepared (compiled, edge-inferred, validated) template
// for one (name, params) binding, caching it for reuse across splice points
// and sweep workers. The returned workflow is shared — callers must not
// mutate it.
func (r *Registry) resolve(name string, params map[string]string) (*dag.Workflow, error) {
	key := dag.RefKey(name, params)
	r.mu.Lock()
	if w, ok := r.cache[key]; ok {
		r.mu.Unlock()
		return w, nil
	}
	c, ok := r.entries[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("compose: no registry entry %q (registered: %s)", name, strings.Join(r.Names(), ", "))
	}
	// Compile outside the lock: compilers are pure functions and may be
	// slow; a concurrent duplicate compile is benign (both results are
	// structurally identical, the first one stored wins).
	var w *dag.Workflow
	var err error
	if pc, isPC := c.(ParamCompiler); isPC {
		w, err = pc.CompileWith(params)
	} else if len(params) > 0 {
		return nil, fmt.Errorf("compose: registry entry %q takes no binding params (got %s)", name, dag.RefKey("", params))
	} else {
		w, err = c.Compile()
	}
	if err != nil {
		return nil, fmt.Errorf("compose: compiling registry entry %q: %w", name, err)
	}
	prepared, err := r.prepare(w)
	if err != nil {
		return nil, fmt.Errorf("compose: registry entry %q: %w", name, err)
	}
	r.mu.Lock()
	if prior, ok := r.cache[key]; ok {
		prepared = prior
	} else {
		r.cache[key] = prepared
	}
	r.mu.Unlock()
	return prepared, nil
}

// prepare clones w, applies edge inference, and validates the result.
// Cloning keeps inference from mutating caller- or compiler-owned workflows.
func (r *Registry) prepare(w *dag.Workflow) (*dag.Workflow, error) {
	if w == nil || w.Len() == 0 {
		return nil, fmt.Errorf("compose: cannot prepare an empty workflow")
	}
	pw := w.Clone()
	if err := InferEdges(pw); err != nil {
		return nil, err
	}
	if err := pw.Validate(); err != nil {
		return nil, fmt.Errorf("compose: workflow %q after edge inference: %w (an inferred type edge may close a cycle; stitch the intended producer explicitly)", pw.Name, err)
	}
	return pw, nil
}

// Resolver adapts the registry to the dag.RefResolver contract: refs resolve
// to prepared, cached templates — exactly the workflows static expansion
// splices, which is what keeps the two modes bit-identical.
func (r *Registry) Resolver() dag.RefResolver {
	return func(name string, params map[string]string) (*dag.Workflow, error) {
		return r.resolve(name, params)
	}
}

// Expand resolves every WorkflowRef in w recursively at compile time: each
// reference's template is spliced inline through Embed under the ref's ID as
// namespace ("ref/task", "ref/inner/task", …), the ref's suppliers become
// barrier dependencies of the template's roots (with output→input byte
// stitching, plus the ref's own declared InputBytes), and consumers of the
// ref re-hang off the template's leaves, inheriting their output bytes. The
// reference graph is first checked for cycles and depth (structured
// *dag.RefCycleError / *dag.RefDepthError naming the chain). w itself is
// never mutated.
func (r *Registry) Expand(w *dag.Workflow) (*dag.Workflow, error) {
	prepared, err := r.prepare(w)
	if err != nil {
		return nil, err
	}
	if err := dag.ValidateRefs(prepared, r.Resolver(), r.maxDepth()); err != nil {
		return nil, err
	}
	out, err := r.expand(prepared, -1)
	if err != nil {
		return nil, err
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("compose: expanded workflow %q: %w", out.Name, err)
	}
	return out, nil
}

// ExpandDepth expands references only `depth` levels down; refs below the
// cutoff stay as collapsed WorkflowRef nodes (rendered as boxes by
// dag.ToDOT). depth 0 returns a prepared copy with every ref collapsed.
// Unlike Expand it tolerates cyclic registries — the cutoff bounds the
// recursion — so it is safe for inspection tooling.
func (r *Registry) ExpandDepth(w *dag.Workflow, depth int) (*dag.Workflow, error) {
	if depth < 0 {
		depth = 0
	}
	prepared, err := r.prepare(w)
	if err != nil {
		return nil, err
	}
	out, err := r.expand(prepared, depth)
	if err != nil {
		return nil, err
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("compose: expanded workflow %q: %w", out.Name, err)
	}
	return out, nil
}

// expand performs one level of splicing over a prepared source, recursing
// into templates. budget < 0 means unbounded (callers have already validated
// the reference graph); budget == 0 keeps refs collapsed.
func (r *Registry) expand(src *dag.Workflow, budget int) (*dag.Workflow, error) {
	dst := dag.NewSized(src.Name, src.Len())
	leavesOf := map[dag.TaskID][]dag.TaskID{}
	outOf := map[dag.TaskID]float64{}
	for _, t := range src.Tasks() {
		deps := make([]dag.TaskID, 0, len(t.Deps))
		extraIn := 0.0
		for _, d := range t.Deps {
			if lv, ok := leavesOf[d]; ok { // dep was an expanded ref: re-hang off its leaves
				deps = append(deps, lv...)
				extraIn += outOf[d]
			} else {
				deps = append(deps, d)
			}
		}
		if !t.IsRef() || budget == 0 {
			cp := *t
			cp.Deps = deps
			if !t.IsRef() {
				cp.InputBytes += extraIn // leaf outputs of expanded ref deps
			}
			if dst.Task(cp.ID) != nil {
				return nil, &CollisionError{
					Namespace: collidingNamespace(leavesOf, cp.ID),
					TaskID:    cp.ID, Workflow: dst.Name, Sub: src.Name,
				}
			}
			dst.Add(&cp)
			continue
		}
		sub, err := r.resolve(t.Ref, t.Params)
		if err != nil {
			return nil, fmt.Errorf("compose: expanding ref %q in workflow %q: %w", t.ID, src.Name, err)
		}
		nb := budget - 1
		if budget < 0 {
			nb = -1
		}
		subX, err := r.expand(sub, nb)
		if err != nil {
			return nil, err
		}
		// The ref's declared InputBytes is data bound into the sub-workflow:
		// it lands on the expanded roots, on top of the supplier-output
		// stitching Embed applies.
		for _, rt := range subX.Roots() {
			rt.InputBytes += t.InputBytes
		}
		leaves, err := Embed(dst, string(t.ID), subX, deps)
		if err != nil {
			return nil, err
		}
		var out float64
		for _, l := range leaves {
			out += dst.Task(l).OutputBytes
		}
		leavesOf[t.ID] = leaves
		outOf[t.ID] = out
	}
	return dst, nil
}

// collidingNamespace names the expanded ref whose namespace a colliding task
// ID falls under, for CollisionError reporting.
func collidingNamespace(leavesOf map[dag.TaskID][]dag.TaskID, id dag.TaskID) string {
	for ref := range leavesOf {
		if strings.HasPrefix(string(id), string(ref)+"/") {
			return string(ref)
		}
	}
	return ""
}

// Expander prepares w and returns a dag.RefExpander over it: the lazy
// counterpart of Expand, resolving the same cached templates at runtime as
// the task frontier reaches each reference. Emission order, indices, IDs,
// and stitched bytes are bit-identical to a WorkflowExpander over Expand's
// output — the equivalence the recursive golden battery proves.
func (r *Registry) Expander(w *dag.Workflow) (*dag.RefExpander, error) {
	prepared, err := r.prepare(w)
	if err != nil {
		return nil, err
	}
	return dag.NewRefExpander(prepared, r.Resolver(), r.maxDepth())
}
