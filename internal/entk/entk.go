// Package entk implements a RADICAL-EnTK-style Ensemble Toolkit (§4): the
// Pipeline-Stage-Task (PST) programming model on top of a pilot runtime.
//
// "Pipeline is a sequence of Stages, and each Stage is a set of independent
// computing Tasks. Multiple pipelines can be executed concurrently, while
// stages, within each pipeline, are executed sequentially."
//
// Fault tolerance follows the paper's ExaAM applications: tasks that fail
// (e.g. from node faults) are collected and re-submitted "as part of the
// consecutive batch job (i.e., the next EnTK run)", with a smaller job whose
// size "correlates to the number of failed tasks", preserving the order of
// the original stages. Each batch job is a pilot, and each pipeline in it
// one rm.StreamRunner over the pipeline's StageExpander.
package entk

import (
	"errors"
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/metrics"
	"hhcw/internal/pilot"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// TaskState tracks a task through the EnTK state model.
type TaskState int

// Task states.
const (
	Initial TaskState = iota
	Scheduling
	Executed
	Failed
)

// String returns the state name.
func (s TaskState) String() string {
	switch s {
	case Initial:
		return "initial"
	case Scheduling:
		return "scheduling"
	case Executed:
		return "executed"
	default:
		return "failed"
	}
}

// Task is one EnTK computing task (whole-node granularity, like the ExaAM
// codes: AdditiveFOAM 4 nodes, ExaCA 1 node, ExaConstit 8 nodes).
type Task struct {
	ID          string
	Nodes       int
	DurationSec float64

	// FailAttempts makes the first N submissions fail at half the task's
	// duration — the knob fault-injection experiments use to model
	// application-level failures (the paper's "too large of a time step"
	// cases) independent of node faults.
	FailAttempts int

	state    TaskState
	attempts int
}

// Stage is a set of independent tasks.
type Stage struct {
	Name  string
	Tasks []*Task

	// PostExec, when set, fires once when every task of the stage is
	// terminal in its first job, before the next stage starts. It may
	// append stages to the pipeline — EnTK's dynamic-workflow capability:
	// "handle the size of a workflow dynamically, e.g., create a new
	// workflow stages based on the status of previously executed stages"
	// (§4). Stages appended by PostExec run in order after the existing
	// ones.
	PostExec func(p *Pipeline, s *Stage)

	postExecFired bool
}

// AddTask appends a task and returns it (builder style).
func (s *Stage) AddTask(t *Task) *Task {
	s.Tasks = append(s.Tasks, t)
	return t
}

// Pipeline is a sequence of stages.
type Pipeline struct {
	Name   string
	Stages []*Stage
}

// AddStage appends a stage and returns it (builder style).
func (p *Pipeline) AddStage(s *Stage) *Stage {
	p.Stages = append(p.Stages, s)
	return s
}

// ResourceDesc describes the pilot allocation an AppManager acquires —
// EnTK's resource description, reconfigured per platform (§4.3).
type ResourceDesc struct {
	Nodes    int
	Walltime sim.Time
	Account  string

	BootstrapSec float64 // agent overhead (Fig 4 OVH)
	SchedRate    float64 // tasks/s (Fig 5, ~269 on Frontier)
	LaunchRate   float64 // tasks/s (Fig 5, ~51 on Frontier)
}

// FrontierResource returns the §4.3 Frontier configuration for a given node
// count.
func FrontierResource(nodes int, walltime sim.Time) ResourceDesc {
	return ResourceDesc{
		Nodes:        nodes,
		Walltime:     walltime,
		Account:      "exaam",
		BootstrapSec: 85,
		SchedRate:    269,
		LaunchRate:   51,
	}
}

// Report summarizes one AppManager run for the Fig 4 / Fig 5 analyses.
type Report struct {
	Rounds        int      // 1 + resubmission jobs
	JobRuntime    sim.Time // first job: grant → release
	Overhead      sim.Time // first job OVH
	TTX           sim.Time // first job: first launch → last completion
	Utilization   float64  // node-seconds busy / (nodes × job runtime), first job
	TasksExecuted int
	TasksFailed   int // terminal failures across all rounds
	ResubmittedOK int // tasks that failed once but succeeded on resubmission

	// Measured agent throughputs of the first job (Fig 5 slopes).
	MeasuredSchedRate  float64
	MeasuredLaunchRate float64

	// Series from the first job for plotting Fig 4/5.
	Running   []metrics.Point
	Scheduled []metrics.Point
	BusyNodes []metrics.Point
}

// AppManager executes pipelines on pilots, handling acquisition,
// concurrency, and resubmission.
type AppManager struct {
	Resource ResourceDesc
	// MaxResubmitRounds bounds the consecutive smaller jobs for failed
	// tasks (the paper's runs needed one).
	MaxResubmitRounds int
	// Policy, when set, caps every job's walltime to the facility limit
	// for its node count — "each ensemble respects Frontier's job
	// scheduling policy in terms of walltime limits per amount of
	// requested compute nodes" (§4.2).
	Policy rm.WalltimePolicy

	cl *cluster.Cluster
	bm *rm.BatchManager
}

// NewAppManager creates an AppManager over a cluster and batch manager.
func NewAppManager(cl *cluster.Cluster, bm *rm.BatchManager, res ResourceDesc) *AppManager {
	return &AppManager{Resource: res, MaxResubmitRounds: 1, cl: cl, bm: bm}
}

// Run executes the pipelines to completion (including resubmission rounds)
// and returns the report. It drives the sim engine.
func (am *AppManager) Run(pipelines ...*Pipeline) (*Report, error) {
	rep := &Report{}
	// Round 0: full job.
	failed, err := am.runJob(am.Resource, pipelines, rep, true)
	if err != nil {
		return nil, err
	}
	rep.Rounds = 1
	if err := am.resubmit("resubmit", pipelines, failed, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// resubmit runs the resubmission rounds after the first job of pipelines,
// whose failed tasks come grouped by stage: each round reruns the failed
// work as one pipeline named name in a smaller job, until nothing fails or
// the round budget is spent. It then books the terminal counts into rep.
func (am *AppManager) resubmit(name string, pipelines []*Pipeline, failed [][]*Task, rep *Report) error {
	for round := 0; round < am.MaxResubmitRounds; round++ {
		n, nodes, maxNodes := 0, 0, 0
		for _, tasks := range failed {
			for _, t := range tasks {
				n++
				nodes += t.Nodes
				maxNodes = max(maxNodes, t.Nodes)
			}
		}
		if n == 0 {
			break
		}
		// Job size correlates with the failed-task count (§4.2), bounded
		// by the original allocation.
		res := am.Resource
		res.Nodes = max(min(nodes, am.Resource.Nodes), maxNodes)
		// Preserve stage order: one synthetic pipeline, one stage per
		// original stage with failures.
		rp := &Pipeline{Name: name}
		for i, tasks := range failed {
			if len(tasks) > 0 {
				rp.Stages = append(rp.Stages, &Stage{Name: fmt.Sprintf("resubmit-%d", i), Tasks: tasks})
			}
		}
		before := countExecuted(pipelines)
		var err error
		if failed, err = am.runJob(res, []*Pipeline{rp}, rep, false); err != nil {
			return err
		}
		rep.Rounds++
		rep.ResubmittedOK += countExecuted(pipelines) - before
	}
	// Terminal failures.
	for _, tasks := range failed {
		rep.TasksFailed += len(tasks)
	}
	rep.TasksExecuted = countExecuted(pipelines)
	return nil
}

func countExecuted(pipelines []*Pipeline) int {
	n := 0
	for _, p := range pipelines {
		for _, s := range p.Stages {
			for _, t := range s.Tasks {
				if t.state == Executed {
					n++
				}
			}
		}
	}
	return n
}

// runJob acquires one pilot, runs the given pipelines concurrently, drives
// the engine to completion, and returns failed tasks grouped by a global
// stage index (pipeline-major).
func (am *AppManager) runJob(res ResourceDesc, pipelines []*Pipeline, rep *Report, first bool) ([][]*Task, error) {
	job := &job{stageIndex: map[*Stage]int{}, active: len(pipelines)}
	for _, pl := range pipelines {
		job.register(pl)
	}
	runs := make([]*pipelineRun, len(pipelines))
	for i, pl := range pipelines {
		x, err := pl.expand()
		if err != nil {
			return nil, err
		}
		job.register(pl) // stages appended by PostExec hooks of leading empty stages
		runs[i] = &pipelineRun{StageExpander: x, job: job}
	}
	if am.Policy != nil {
		if cap := am.Policy(res.Nodes); res.Walltime > cap {
			res.Walltime = cap
		}
	}
	p, err := pilot.Submit(am.bm, am.cl, pilot.Config{
		Nodes:        res.Nodes,
		Walltime:     res.Walltime,
		Account:      res.Account,
		BootstrapSec: res.BootstrapSec,
		SchedRate:    res.SchedRate,
		LaunchRate:   res.LaunchRate,
	})
	if err != nil {
		return nil, err
	}
	job.p = p
	active := false
	p.OnActive(func() {
		active = true
		for _, r := range runs {
			r.start()
		}
	})
	am.cl.Engine().Run()
	if p.State() == pilot.Pending {
		return nil, fmt.Errorf("entk: pilot for %d nodes was never granted (cluster has %d healthy nodes)",
			res.Nodes, am.cl.UpCount())
	}
	if !active {
		return nil, fmt.Errorf("entk: pilot for %d nodes expired at its %gs walltime before its %gs bootstrap completed",
			res.Nodes, float64(res.Walltime), res.BootstrapSec)
	}
	if first {
		rep.Overhead = p.Overhead()
		rep.TTX = p.TTX()
		end := p.StartedAt() + p.Overhead() + p.TTX()
		rep.JobRuntime = end - p.StartedAt()
		if res.Nodes > 0 && rep.JobRuntime > 0 {
			rep.Utilization = p.BusyNodesSeries().Integral(p.StartedAt(), end) /
				(float64(res.Nodes) * float64(rep.JobRuntime))
		}
		rep.MeasuredSchedRate = measuredRate(p.ScheduledSeries().Points())
		rep.MeasuredLaunchRate = measuredRate(p.LaunchedSeries().Points())
		rep.Running = copySeries(p.RunningSeries().Points())
		rep.Scheduled = copySeries(p.ScheduledSeries().Points())
		rep.BusyNodes = copySeries(p.BusyNodesSeries().Points())
	}
	return job.failed, nil
}

// job is one batch job: the pilot, the global stage index failed tasks are
// grouped by for order-preserving resubmission, and the count of pipelines
// still running.
type job struct {
	p          *pilot.Pilot
	stageIndex map[*Stage]int
	failed     [][]*Task
	active     int
}

// register indexes the pipeline's stages not indexed yet, in order: at job
// start, then as PostExec hooks append stages.
func (j *job) register(pl *Pipeline) {
	for _, s := range pl.Stages {
		if _, known := j.stageIndex[s]; !known {
			j.stageIndex[s] = len(j.failed)
			j.failed = append(j.failed, nil)
		}
	}
}

// pipelineDone releases the pilot once every pipeline has finished.
func (j *job) pipelineDone() {
	j.active--
	if j.active == 0 {
		j.p.Release()
	}
}

// pipelineRun is a pipeline's StageExpander run the AppManager's way. A
// failed task is collected for the next batch job and completes its stage
// like a success: later stages still run, and PostExec still fires, except
// on a stage whose every task the pilot refused, which advances without it.
// Each submission counts an attempt and asks for the task's nodes whole;
// while FailAttempts lasts, an attempt fails at half the task's duration.
type pipelineRun struct {
	*StageExpander
	job *job
	sr  rm.StreamRunner
	ran bool // a task of the armed stage was not refused
}

// start runs the pipeline's stages on the job's pilot.
func (r *pipelineRun) start() {
	r.sr = rm.StreamRunner{
		Manager:    r.job.p,
		Source:     r,
		WorkflowID: r.p.Name,
		Runtime:    func(t *dag.Task, _ *cluster.Node) float64 { return t.NominalDur },
		FailPlan:   r.failPlan,
		Observe:    r.observe,
		OnComplete: r.job.pipelineDone,
	}
	r.sr.Start()
}

// task returns the Task at insertion index idx, which the armed stage holds.
func (r *pipelineRun) task(idx int) *Task {
	st := &r.stages[r.curExp]
	return st.tasks[idx-st.base]
}

// Next implements dag.Expander.
func (r *pipelineRun) Next() (*dag.Task, int, bool) {
	t, idx, ok := r.StageExpander.Next()
	if !ok {
		return nil, 0, false
	}
	task := r.task(idx)
	task.state = Scheduling
	task.attempts++
	t.Cores = task.Nodes * r.job.p.CoresPerNode()
	if r.failPlan(idx) > 0 {
		t.NominalDur = task.DurationSec / 2
	}
	return t, idx, true
}

// failPlan is the runner's FailPlan: the attempt at idx fails while the
// task's FailAttempts last.
func (r *pipelineRun) failPlan(idx int) int {
	if t := r.task(idx); t.attempts <= t.FailAttempts {
		return 1
	}
	return 0
}

// observe books a terminal result on its Task before the runner reports it.
func (r *pipelineRun) observe(t *dag.Task, res rm.Result) {
	task := r.task(r.inflight[t.ID])
	task.state = Executed
	if res.Failed {
		task.state = Failed
		gi := r.job.stageIndex[r.stages[r.curExp].src]
		r.job.failed[gi] = append(r.job.failed[gi], task)
	}
	r.ran = r.ran || !errors.Is(res.Err, pilot.ErrRejected)
}

// TaskFailed implements dag.Expander: the task settles its stage like a
// success and writes nothing off.
func (r *pipelineRun) TaskFailed(id dag.TaskID) int {
	r.TaskDone(id)
	return 0
}

// TaskDone implements dag.Expander.
func (r *pipelineRun) TaskDone(id dag.TaskID) {
	last := r.remaining == 1
	if last && !r.ran {
		r.stages[r.curExp].src.postExecFired = true
	}
	r.StageExpander.TaskDone(id)
	if last {
		r.ran = false
		r.job.register(r.p)
	}
}

// measuredRate returns events/second over the initial ramp of a cumulative
// counter series — the slope the paper reads off Fig 5 ("initial slopes of
// blue and orange lines"). The ramp ends at the first inter-event gap an
// order of magnitude above the running mean gap (i.e. when launches stall
// waiting for completions) or at the series end.
func measuredRate(pts []metrics.Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	end := len(pts) - 1
	meanGap := 0.0
	for i := 1; i < len(pts); i++ {
		gap := float64(pts[i].T - pts[i-1].T)
		if i >= 3 && meanGap > 0 && gap > 10*meanGap {
			end = i - 1
			break
		}
		meanGap += (gap - meanGap) / float64(i)
	}
	span := float64(pts[end].T - pts[0].T)
	if span <= 0 {
		return 0
	}
	return (pts[end].V - pts[0].V) / span
}

func copySeries(pts []metrics.Point) []metrics.Point {
	return append([]metrics.Point(nil), pts...)
}
