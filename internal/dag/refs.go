package dag

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultMaxRefDepth bounds how many levels of WorkflowRef nesting an
// expansion will follow before giving up. Real compositions (a site pipeline
// of app pipelines of tool sub-workflows) sit at depth 2–4; anything deeper
// is almost always an unintended parameterized recursion.
const DefaultMaxRefDepth = 8

// RefResolver materializes the workflow a WorkflowRef names, given the ref's
// binding params. compose.Registry.Resolver is the canonical implementation;
// the indirection keeps package dag free of any registry dependency.
// Resolvers must be deterministic: the same (name, params) pair must always
// yield the same workflow, structurally — lazy expansion relies on it.
type RefResolver func(name string, params map[string]string) (*Workflow, error)

// RefKey canonicalizes a reference target: the name plus the binding params
// in sorted k=v form. Two refs with equal keys resolve to the same workflow,
// which is what cycle detection and template caching key on.
func RefKey(name string, params map[string]string) string {
	if len(params) == 0 {
		return name
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('[')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(params[k])
	}
	b.WriteByte(']')
	return b.String()
}

// RefCycleError reports a circular chain of workflow references: some
// (name, params) target transitively references itself. Chain names every
// hop from the root workflow to the repeated target, so the error message is
// the cycle itself.
type RefCycleError struct {
	Chain []string
}

func (e *RefCycleError) Error() string {
	return fmt.Sprintf("dag: circular workflow reference: %s", strings.Join(e.Chain, " -> "))
}

// RefDepthError reports a reference chain nested beyond the depth limit —
// the backstop for parameterized recursions that never close a cycle.
type RefDepthError struct {
	Chain []string
	Limit int
}

func (e *RefDepthError) Error() string {
	return fmt.Sprintf("dag: workflow reference chain exceeds depth limit %d: %s",
		e.Limit, strings.Join(e.Chain, " -> "))
}

// ValidateRefs walks the reference graph under w: every WorkflowRef is
// resolved (recursively) and checked for circular references and nesting
// deeper than maxDepth (0 means DefaultMaxRefDepth). It returns a
// *RefCycleError or *RefDepthError naming the full reference chain, or the
// resolver's error wrapped with the chain position. Workflows without refs
// validate trivially; Validate itself stays purely structural.
func ValidateRefs(w *Workflow, resolve RefResolver, maxDepth int) error {
	if maxDepth <= 0 {
		maxDepth = DefaultMaxRefDepth
	}
	active := map[string]bool{}
	// ok memoizes subtrees already proven acyclic and within budget at a
	// given nesting depth; a diamond re-entered at a deeper position has
	// less remaining budget and is re-walked.
	type okKey struct {
		ref   string
		depth int
	}
	ok := map[okKey]bool{}
	var walk func(sub *Workflow, chain []string, depth int) error
	walk = func(sub *Workflow, chain []string, depth int) error {
		for _, t := range sub.Tasks() {
			if !t.IsRef() {
				continue
			}
			key := RefKey(t.Ref, t.Params)
			next := append(chain, key)
			if active[key] {
				return &RefCycleError{Chain: next}
			}
			if depth+1 > maxDepth {
				return &RefDepthError{Chain: next, Limit: maxDepth}
			}
			if ok[okKey{key, depth + 1}] {
				continue
			}
			target, err := resolve(t.Ref, t.Params)
			if err != nil {
				return fmt.Errorf("dag: resolving reference %s: %w", strings.Join(next, " -> "), err)
			}
			if target.Len() == 0 {
				return fmt.Errorf("dag: reference %s resolves to an empty workflow", strings.Join(next, " -> "))
			}
			active[key] = true
			err = walk(target, next, depth+1)
			delete(active, key)
			if err != nil {
				return err
			}
			ok[okKey{key, depth + 1}] = true
		}
		return nil
	}
	return walk(w, []string{w.Name}, 0)
}
