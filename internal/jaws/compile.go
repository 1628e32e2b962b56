package jaws

import "hhcw/internal/dag"

// Compile flattens a mini-WDL workflow description into a validated DAG,
// implementing the compose.Compiler interface — workflows written for the
// §6 centralized service run on any core environment or compose with any
// other subsystem. Scatters expand into shards; a shard of a scattered task
// depends on ALL shards of each scattered dependency (WDL's gather
// semantics), and the per-shard overhead is folded into the duration. Tasks
// are added in the streaming expander's Kahn order, so deps exist first.
func (def *WorkflowDef) Compile() (*dag.Workflow, error) {
	x, err := def.Expand()
	if err != nil {
		return nil, err
	}
	w := dag.New(def.Name)
	shardIDs := make([][]dag.TaskID, len(x.order))
	var ids shardRenderer
	for p, t := range x.order {
		var deps []dag.TaskID
		for _, d := range t.After {
			deps = append(deps, shardIDs[x.pos[d]]...)
		}
		shardIDs[p] = make([]dag.TaskID, t.Shards())
		for s := range shardIDs[p] {
			shardIDs[p][s] = ids.id(p, t.Name, t.Shards(), s)
			w.Add(&dag.Task{
				ID:         shardIDs[p][s],
				Name:       t.Name,
				Cores:      t.Cores,
				MemBytes:   t.MemBytes,
				NominalDur: t.DurationSec + t.OverheadSec,
				Deps:       append([]dag.TaskID(nil), deps...),
			})
		}
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
