package jaws

import (
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
	"hhcw/internal/storage"
)

// Engine is the Cromwell-like execution engine: it expands scatters into
// shards, runs them through a site's resource manager, caches calls, and —
// unlike stock Cromwell, which "does not implement fair share policies"
// (§6.2) — optionally caps per-user concurrency.
type Engine struct {
	cl    *cluster.Cluster
	mgr   *rm.TaskManager
	store *storage.Store

	// CallCaching enables result reuse for identical calls.
	CallCaching bool
	// MaxConcurrentPerUser bounds each user's running shards (0 =
	// unbounded, the §6.2 anti-pattern).
	MaxConcurrentPerUser int

	cache map[string]bool // signature → done

	// Per-user throttling state.
	running map[string]int
	waiting map[string][]func()
}

// NewEngine builds an engine over a cluster with its own task manager.
func NewEngine(cl *cluster.Cluster, store *storage.Store) *Engine {
	return &Engine{
		cl:      cl,
		mgr:     rm.NewTaskManager(cl, nil),
		store:   store,
		cache:   map[string]bool{},
		running: map[string]int{},
		waiting: map[string][]func(){},
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
	rep, done, err := e.Start(def, user)
	if err != nil {
		return nil, err
	}
	e.cl.Engine().Run()
	if !*done {
		return nil, fmt.Errorf("jaws: workflow %q stalled (cluster too small for a task?)", def.Name)
	}
	return rep, nil
}

// Start begins executing a workflow without driving the simulator, so
// several users' workflows can share the engine concurrently. The returned
// flag becomes true when the workflow finishes.
func (e *Engine) Start(def *WorkflowDef, user string) (*RunReport, *bool, error) {
	if err := def.Validate(); err != nil {
		return nil, nil, err
	}
	eng := e.cl.Engine()
	rep := &RunReport{Workflow: def.Name, User: user}
	start := eng.Now()
	done := new(bool)

	remainingDeps := map[string]int{}
	remainingShards := map[string]int{}
	totalRemaining := len(def.Tasks)
	for _, t := range def.Tasks {
		remainingDeps[t.Name] = len(t.After)
		remainingShards[t.Name] = t.Shards()
	}

	var launchTask func(t *TaskDef)
	taskDone := func(t *TaskDef) {
		totalRemaining--
		if totalRemaining == 0 {
			rep.Makespan = eng.Now() - start
			*done = true
		}
		for _, c := range def.Children(t.Name) {
			remainingDeps[c.Name]--
			if remainingDeps[c.Name] == 0 {
				launchTask(c)
			}
		}
	}
	launchTask = func(t *TaskDef) {
		// submit runs one attempt of a shard. Shards rerun on node failure
		// (workflow managers "efficiently handle fault-tolerance") under the
		// "-retry" ID suffix.
		var submit func(shard int, sig, suffix string)
		submit = func(shard int, sig, suffix string) {
			e.mgr.Submit(&rm.Submission{
				ID:         fmt.Sprintf("%s/%s/%s#%d%s", user, def.Name, t.Name, shard, suffix),
				WorkflowID: user + "/" + def.Name,
				Name:       t.Name,
				Cores:      t.Cores,
				Mem:        t.MemBytes,
				Runtime: func(n *cluster.Node) float64 {
					return t.OverheadSec + t.DurationSec/n.Type.SpeedFactor
				},
				Done: func(r rm.Result) {
					e.release(user)
					if r.Failed {
						e.admit(user, func() { submit(shard, sig, "-retry") })
						return
					}
					e.completeShard(def, t, shard, sig, rep)
					remainingShards[t.Name]--
					if remainingShards[t.Name] == 0 {
						taskDone(t)
					}
				},
			})
		}
		for shard := 0; shard < t.Shards(); shard++ {
			shard := shard
			sig := def.Signature(t, shard)
			if e.CallCaching && e.cache[sig] {
				rep.CacheHits++
				remainingShards[t.Name]--
				if remainingShards[t.Name] == 0 {
					// Defer to an event so ordering matches execution.
					eng.After(0, func() { taskDone(t) })
				}
				continue
			}
			e.admit(user, func() { submit(shard, sig, "") })
		}
	}
	for _, t := range def.Tasks {
		if len(t.After) == 0 {
			launchTask(t)
		}
	}
	return rep, done, nil
}

func (e *Engine) completeShard(def *WorkflowDef, t *TaskDef, shard int, sig string, rep *RunReport) {
	rep.ShardsExecuted++
	rep.TaskSeconds += t.OverheadSec + t.DurationSec
	// Each shard stages outputs to the shared filesystem.
	e.store.Put(storage.File{
		Name:  fmt.Sprintf("%s/%s/shard-%04d.out", def.Name, t.Name, shard),
		Bytes: 50e6,
	})
	rep.FilesystemOps++
	if e.CallCaching {
		e.cache[sig] = true
	}
}

// admit runs fn now if the user is under their concurrency cap, else queues.
func (e *Engine) admit(user string, fn func()) {
	if e.MaxConcurrentPerUser > 0 && e.running[user] >= e.MaxConcurrentPerUser {
		e.waiting[user] = append(e.waiting[user], fn)
		return
	}
	e.running[user]++
	fn()
}

func (e *Engine) release(user string) {
	e.running[user]--
	if q := e.waiting[user]; len(q) > 0 && (e.MaxConcurrentPerUser == 0 || e.running[user] < e.MaxConcurrentPerUser) {
		fn := q[0]
		e.waiting[user] = q[1:]
		e.running[user]++
		fn()
	}
}

// Store returns the engine's shared filesystem.
func (e *Engine) Store() *storage.Store { return e.store }

// Cluster returns the engine's compute site.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }
