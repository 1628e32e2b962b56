package jaws

import (
	"strings"

	"hhcw/internal/dag"
)

// Compile flattens a mini-WDL workflow description into a validated DAG,
// implementing the compose.Compiler interface — workflows written for the
// §6 centralized service run on any core environment or compose with any
// other subsystem. Scatters expand into shards; a shard of a scattered task
// depends on ALL shards of each scattered dependency (WDL's gather
// semantics), and the per-shard overhead is folded into the duration.
func (def *WorkflowDef) Compile() (*dag.Workflow, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	w := dag.New(def.Name)
	shardIDs := map[string][]dag.TaskID{}
	var ids strings.Builder
	for _, t := range def.Tasks {
		shardIDs[t.Name] = make([]dag.TaskID, t.Shards())
		for s := range shardIDs[t.Name] {
			shardIDs[t.Name][s] = shardID(&ids, t.Name, t.Shards(), s)
		}
	}
	// def.Tasks is already validated acyclic; add in an order where deps
	// exist first (topological by Kahn over names).
	indeg := map[string]int{}
	children := map[string][]string{}
	for _, t := range def.Tasks {
		indeg[t.Name] = len(t.After)
		for _, d := range t.After {
			children[d] = append(children[d], t.Name)
		}
	}
	var ready []string
	for _, t := range def.Tasks {
		if indeg[t.Name] == 0 {
			ready = append(ready, t.Name)
		}
	}
	byName := map[string]*TaskDef{}
	for _, t := range def.Tasks {
		byName[t.Name] = t
	}
	for len(ready) > 0 {
		name := ready[0]
		ready = ready[1:]
		t := byName[name]
		var deps []dag.TaskID
		for _, d := range t.After {
			deps = append(deps, shardIDs[d]...)
		}
		for s := 0; s < t.Shards(); s++ {
			w.Add(&dag.Task{
				ID:         shardIDs[t.Name][s],
				Name:       t.Name,
				Cores:      t.Cores,
				MemBytes:   t.MemBytes,
				NominalDur: t.DurationSec + t.OverheadSec,
				Deps:       append([]dag.TaskID(nil), deps...),
			})
		}
		for _, c := range children[name] {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
