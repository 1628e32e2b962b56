package entk

import (
	"fmt"

	"hhcw/internal/dag"
)

// Compile flattens the Pipeline-Stage-Task model into a validated DAG,
// implementing the compose.Compiler interface: tasks within a stage are
// independent, and every task of stage i depends on every task of the
// previous non-empty stage — the PST barrier semantics, expressed as edges.
//
// Two PST features do not survive static compilation and are rejected or
// reinterpreted explicitly:
//
//   - PostExec (dynamic stage growth) has no static task set; compiling a
//     pipeline with PostExec hooks returns an error. Run such pipelines
//     through the AppManager, whose StageExpander grows the frontier as
//     hooks fire.
//   - Node-granular sizing maps to core requests one-for-one (a 8-node
//     ExaConstit task becomes an 8-core task). Execute compiled ensembles on
//     environments whose nodes have at least the largest task's node count
//     in cores, or rescale before composing.
//
// Per-task FailAttempts knobs are dropped: composed workflows take failure
// injection from the executing environment's fault profile, which keeps
// composed runs a pure function of (workflow, environment, seed).
func (p *Pipeline) Compile() (*dag.Workflow, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("entk: cannot compile a pipeline without a name")
	}
	w := dag.New(p.Name)
	var prev []dag.TaskID
	for si, st := range p.Stages {
		if st.PostExec != nil {
			return nil, fmt.Errorf("entk: stage %q has a PostExec hook; dynamic pipelines have no static task set — run them through the AppManager", st.Name)
		}
		if len(st.Tasks) == 0 {
			continue
		}
		stageName := st.Name
		if stageName == "" {
			stageName = fmt.Sprintf("stage%02d", si)
		}
		ids := make([]dag.TaskID, 0, len(st.Tasks))
		for _, t := range st.Tasks {
			if t.DurationSec <= 0 {
				return nil, fmt.Errorf("entk: task %q has non-positive duration", t.ID)
			}
			nodes := t.Nodes
			if nodes < 1 {
				nodes = 1
			}
			id := dag.TaskID(stageName + "/" + t.ID)
			if w.Task(id) != nil {
				return nil, fmt.Errorf("entk: duplicate task %q in compiled pipeline %q", id, p.Name)
			}
			w.Add(&dag.Task{
				ID:         id,
				Name:       stageName,
				Cores:      nodes,
				NominalDur: t.DurationSec,
				Deps:       append([]dag.TaskID(nil), prev...),
			})
			ids = append(ids, id)
		}
		prev = ids
	}
	if w.Len() == 0 {
		return nil, fmt.Errorf("entk: pipeline %q compiles to an empty workflow", p.Name)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
