package jaws

import (
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
	"hhcw/internal/storage"
)

// Engine is the Cromwell-like execution engine: it expands scatters into
// shards, runs them through a site's resource manager, caches calls, and —
// unlike stock Cromwell, which "does not implement fair share policies"
// (§6.2) — optionally caps per-user concurrency. Each workflow runs as one
// rm.StreamRunner over the def's ScatterExpander: the task driver every
// other subsystem runs on.
type Engine struct {
	cl    *cluster.Cluster
	mgr   *rm.TaskManager
	store *storage.Store

	// CallCaching enables result reuse for identical calls.
	CallCaching bool
	// MaxConcurrentPerUser bounds the running shards of each started
	// workflow (0 = unbounded, the §6.2 anti-pattern); a shard rerun after
	// a node failure keeps its slot. The cap is per user as long as each
	// user runs one workflow at a time, as every caller does.
	MaxConcurrentPerUser int

	cache map[string]bool // signature → done
}

// NewEngine builds an engine over a cluster with its own task manager.
func NewEngine(cl *cluster.Cluster, store *storage.Store) *Engine {
	return &Engine{
		cl:    cl,
		mgr:   rm.NewTaskManager(cl, nil),
		store: store,
		cache: map[string]bool{},
	}
}

// RunReport summarizes one workflow execution.
type RunReport struct {
	Workflow       string
	User           string
	Makespan       sim.Time
	ShardsExecuted int
	CacheHits      int
	// FilesystemOps counts staging writes — the shard-proportional load
	// §6.1's fusion example reduced by 71 %.
	FilesystemOps int
	// TaskSeconds is summed payload+overhead execution time.
	TaskSeconds float64
}

// Run executes a workflow for a user. It drives the engine's simulator until
// the workflow completes. Multiple Run calls may be issued before running
// the engine via Start/Wait for concurrent-user experiments.
func (e *Engine) Run(def *WorkflowDef, user string) (*RunReport, error) {
	rep, sr, err := e.Start(def, user)
	if err != nil {
		return nil, err
	}
	e.cl.Engine().Run()
	if err := sr.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Start begins executing a workflow without driving the simulator, so
// several users' workflows can share the engine concurrently. Once the
// engine has drained, the returned runner's Err reports a workflow that
// stalled. Cache hits are looked up here, once: they are never submitted,
// and a fully cached workflow is done on return, with makespan 0.
func (e *Engine) Start(def *WorkflowDef, user string) (*RunReport, *rm.StreamRunner, error) {
	var cached func(t *TaskDef, s int) bool
	if e.CallCaching {
		cached = func(t *TaskDef, s int) bool { return e.cache[def.Signature(t, s)] }
	}
	x, err := def.expand(cached)
	if err != nil {
		return nil, nil, err
	}
	eng := e.cl.Engine()
	rep := &RunReport{Workflow: def.Name, User: user, CacheHits: def.TotalShards() - x.Total()}
	start := eng.Now()
	sr := &rm.StreamRunner{
		Manager:     e.mgr,
		Source:      x,
		WorkflowID:  user + "/" + def.Name,
		MaxResident: e.MaxConcurrentPerUser,
		Runtime: func(t *dag.Task, n *cluster.Node) float64 {
			d := def.Task(t.Name)
			return d.OverheadSec + d.DurationSec/n.Type.SpeedFactor
		},
		Hook: func(s *rm.Submission, _ *dag.Task, _, _ int) rm.AttemptHook { return rerun{s.Hooks} },
		Observe: func(t *dag.Task, _ rm.Result) {
			p, shard, _ := x.locate(t.ID)
			d := x.order[p]
			rep.ShardsExecuted++
			rep.TaskSeconds += d.OverheadSec + d.DurationSec
			// Each shard stages outputs to the shared filesystem.
			e.store.Put(storage.File{
				Name:  fmt.Sprintf("%s/%s/shard-%04d.out", def.Name, d.Name, shard),
				Bytes: 50e6,
			})
			rep.FilesystemOps++
			if e.CallCaching {
				e.cache[def.Signature(d, shard)] = true
			}
		},
		OnComplete: func() { rep.Makespan = eng.Now() - start },
	}
	sr.Start()
	return rep, sr, nil
}

// rerun is the engine's attempt hook: a shard lost with its node reruns at
// once (workflow managers "efficiently handle fault-tolerance"), as often as
// it takes.
type rerun struct{ rm.SubmissionHooks }

func (rerun) Backoff(sim.Time)     {}
func (rerun) Resubmit(error) error { return nil }

// Store returns the engine's shared filesystem.
func (e *Engine) Store() *storage.Store { return e.store }
