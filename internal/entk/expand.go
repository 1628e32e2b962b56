package entk

import (
	"fmt"

	"hhcw/internal/dag"
)

// StageExpander streams the exact task sequence Compile would materialize
// for a Pipeline — stage by stage, tasks in stage order — holding only the
// stage currently in flight. The PST barrier makes the streaming order
// trivially exact: a stage's tasks all become ready at the completion of the
// previous non-empty stage's last task, so the eager submission order is
// stage-major, task-minor, which is precisely what the cursor below emits.
//
// Unlike Compile, the expander supports PostExec: dynamic stage growth is
// exactly what a lazy frontier can express that a static task list cannot.
// When a stage drains successfully its PostExec hook fires once (EnTK §4:
// "create new workflow stages based on the status of previously executed
// stages"), and any stages the hook appended are validated, counted into
// Total, and emitted in order — first-class lazy expansion, driven through
// rm.StreamRunner like every other expander. A terminal task failure kills
// the pipeline barrier as before: later stages are written off and the dead
// stage's PostExec is suppressed (failed ensembles don't grow).
//
// Compile's other restrictions carry over: node counts map to core requests
// one-for-one, and per-task FailAttempts knobs are dropped (failure
// injection comes from the executing environment's fault profile). The
// AppManager runs the same expander on its pilots with the batch-job
// semantics instead (see pipelineRun).
type StageExpander struct {
	name   string
	p      *Pipeline
	stages []expStage // built non-empty stages, in pipeline order

	built  int // p.Stages entries validated and counted into total
	seq    int // p.Stages entry the sequence cursor is at
	curExp int // index into stages of the armed (emitting) stage

	emitNext  int // next task index within the armed stage
	remaining int // unfinished tasks of the in-flight stage
	dead      bool

	inflight map[dag.TaskID]int // emitted task -> insertion index
	total    int
	seen     map[dag.TaskID]bool
}

type expStage struct {
	name  string
	src   *Stage
	tasks []*Task
	base  int // eager insertion index of the stage's first task
}

// expand returns a streaming expander over the pipeline — the lazy
// counterpart of Compile, with the same validation over the stages present
// at expansion time, except that unnamed and empty pipelines run. Stages
// appended later by PostExec hooks are validated as they arm; an invalid
// dynamic stage (non-positive duration, duplicate task ID) panics, since by
// then the run is in flight and there is no error path back to the caller.
func (p *Pipeline) expand() (*StageExpander, error) {
	x := &StageExpander{
		name:     p.Name,
		p:        p,
		curExp:   -1,
		inflight: make(map[dag.TaskID]int, 16),
		seen:     make(map[dag.TaskID]bool, 16),
	}
	for x.built < len(p.Stages) {
		if err := x.buildStage(x.built); err != nil {
			return nil, err
		}
	}
	if err := x.advance(); err != nil {
		return nil, err
	}
	return x, nil
}

// buildStage validates p.Stages[si], counts its tasks into Total, and
// registers it for emission if non-empty.
func (x *StageExpander) buildStage(si int) error {
	st := x.p.Stages[si]
	x.built++
	if len(st.Tasks) == 0 {
		return nil
	}
	stageName := st.Name
	if stageName == "" {
		stageName = fmt.Sprintf("stage%02d", si)
	}
	for _, t := range st.Tasks {
		if t.DurationSec <= 0 {
			return fmt.Errorf("entk: task %q has non-positive duration", t.ID)
		}
		id := dag.TaskID(stageName + "/" + t.ID)
		if x.seen[id] {
			return fmt.Errorf("entk: duplicate task %q in expanded pipeline %q", id, x.name)
		}
		x.seen[id] = true
	}
	x.stages = append(x.stages, expStage{name: stageName, src: st, tasks: st.Tasks, base: x.total})
	x.total += len(st.Tasks)
	return nil
}

// advance walks the sequence cursor to the next non-empty stage and arms it.
// Empty stages fire their PostExec hooks in passing, and stages appended by
// any hook are built on reach.
func (x *StageExpander) advance() error {
	for x.seq < len(x.p.Stages) {
		for x.built <= x.seq {
			if err := x.buildStage(x.built); err != nil {
				return err
			}
		}
		st := x.p.Stages[x.seq]
		if len(st.Tasks) == 0 {
			x.firePostExec(st)
			x.seq++
			continue
		}
		x.curExp++
		x.emitNext = 0
		x.remaining = len(x.stages[x.curExp].tasks)
		return nil
	}
	return nil
}

// firePostExec runs a stage's hook once.
func (x *StageExpander) firePostExec(st *Stage) {
	if st.PostExec == nil || st.postExecFired {
		return
	}
	st.postExecFired = true
	st.PostExec(x.p, st)
}

// Name implements dag.Expander.
func (x *StageExpander) Name() string { return x.name }

// Total implements dag.Expander. For pipelines with PostExec hooks the value
// grows as hooks append stages; streaming runners re-read it per terminal
// task, so completion accounting tracks the growth.
func (x *StageExpander) Total() int { return x.total }

// Next implements dag.Expander, emitting the in-flight stage's next task.
// Emission continues through the current stage even after a terminal failure
// (its siblings are not descendants of the failed task); dead only stops the
// barrier from arming later stages.
func (x *StageExpander) Next() (*dag.Task, int, bool) {
	if x.curExp < 0 || x.curExp >= len(x.stages) {
		return nil, 0, false
	}
	st := &x.stages[x.curExp]
	if x.emitNext >= len(st.tasks) {
		return nil, 0, false
	}
	i := x.emitNext
	x.emitNext++
	t := st.tasks[i]
	nodes := t.Nodes
	if nodes < 1 {
		nodes = 1
	}
	id := dag.TaskID(st.name + "/" + t.ID)
	out := &dag.Task{
		ID:         id,
		Name:       st.name,
		Cores:      nodes,
		NominalDur: t.DurationSec,
	}
	x.inflight[id] = st.base + i
	return out, st.base + i, true
}

// TaskDone implements dag.Expander: the last completion of a stage fires its
// PostExec hook (which may grow the pipeline) and arms the next stage.
func (x *StageExpander) TaskDone(id dag.TaskID) {
	if _, ok := x.inflight[id]; !ok {
		panic(fmt.Sprintf("entk: expander %q got a terminal report for unknown task %q", x.name, id))
	}
	delete(x.inflight, id)
	x.remaining--
	if x.remaining == 0 && !x.dead {
		x.firePostExec(x.stages[x.curExp].src)
		x.seq++
		if err := x.advance(); err != nil {
			panic(fmt.Sprintf("entk: PostExec appended an invalid stage to pipeline %q: %v", x.name, err))
		}
	}
}

// TaskFailed implements dag.Expander. The barrier chains every later stage
// behind the failed task's stage, so a terminal failure writes off all of
// them at once — including stages appended by earlier PostExec hooks but not
// yet built, whose tasks are counted into Total here so the denominator
// balances. In-flight siblings of the failed task still finish normally, and
// the dead stage's own PostExec never fires.
func (x *StageExpander) TaskFailed(id dag.TaskID) int {
	if _, ok := x.inflight[id]; !ok {
		panic(fmt.Sprintf("entk: expander %q got a terminal report for unknown task %q", x.name, id))
	}
	delete(x.inflight, id)
	x.remaining--
	if x.dead {
		return 0
	}
	x.dead = true
	n := 0
	for _, st := range x.stages[x.curExp+1:] {
		n += len(st.tasks)
	}
	for _, st := range x.p.Stages[x.built:] {
		n += len(st.Tasks)
		x.total += len(st.Tasks)
	}
	x.built = len(x.p.Stages)
	return n
}

// Retire implements dag.Expander. Emitted tasks are fresh per emission (EnTK
// stages are small); nothing is recycled.
func (x *StageExpander) Retire(*dag.Task) {}
