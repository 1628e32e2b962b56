package jaws

import (
	"fmt"
	"strings"
)

// Fuse merges a linear chain of tasks into one task — the §6.1
// modularization guidance taken to its efficient extreme: "by integrating
// four separate tasks into a single task, we cut the execution time by 70%
// and decreased the number of shards by 71%."
//
// The fused task pays one per-shard overhead instead of one per constituent,
// takes the maximum resource request, sums payload durations, uses the first
// task's scatter width, and inherits the chain's external dependencies and
// dependents.
func Fuse(def *WorkflowDef, chain []string) (*WorkflowDef, error) {
	if len(chain) < 2 {
		return nil, fmt.Errorf("jaws: fusion needs at least 2 tasks")
	}
	inChain := map[string]bool{}
	var members []*TaskDef
	for _, name := range chain {
		t := def.Task(name)
		if t == nil {
			return nil, fmt.Errorf("jaws: fusion target %q not in workflow", name)
		}
		inChain[name] = true
		members = append(members, t)
	}
	// Verify the chain is linear: each member after the first depends only
	// on the previous member (plus possibly externals), and no external
	// task depends on an interior member.
	for i := 1; i < len(members); i++ {
		found := false
		for _, d := range members[i].After {
			if d == members[i-1].Name {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("jaws: %q does not follow %q; fusion chain must be linear", members[i].Name, members[i-1].Name)
		}
	}
	for _, t := range def.Tasks {
		if inChain[t.Name] {
			continue
		}
		for _, d := range t.After {
			if inChain[d] && d != members[len(members)-1].Name {
				return nil, fmt.Errorf("jaws: external task %q consumes interior member %q", t.Name, d)
			}
		}
	}

	fused := &TaskDef{
		Name:      strings.Join(chain, "+"),
		Container: members[0].Container,
		Scatter:   members[0].Scatter,
	}
	extDeps := map[string]bool{}
	for _, m := range members {
		if m.Cores > fused.Cores {
			fused.Cores = m.Cores
		}
		if m.MemBytes > fused.MemBytes {
			fused.MemBytes = m.MemBytes
		}
		fused.DurationSec += m.DurationSec
		if m.OverheadSec > fused.OverheadSec {
			fused.OverheadSec = m.OverheadSec // one overhead, the largest
		}
		for _, d := range m.After {
			if !inChain[d] && !extDeps[d] {
				extDeps[d] = true
				fused.After = append(fused.After, d) // first-seen order
			}
		}
	}

	out := &WorkflowDef{Name: def.Name + "-fused"}
	for _, t := range def.Tasks {
		if inChain[t.Name] {
			continue
		}
		c := *t
		// Rewire dependencies on the chain tail to the fused task.
		c.After = nil
		for _, d := range t.After {
			if inChain[d] {
				d = fused.Name
			}
			c.After = append(c.After, d)
		}
		out.Tasks = append(out.Tasks, &c)
	}
	out.Tasks = append(out.Tasks, fused)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
