package jaws

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
	"hhcw/internal/storage"
)

// literalDef is a struct-literal workflow, declared out of dependency order:
// prep -> align (scattered) -> merge, plus an independent stats task.
func literalDef(prepDur float64) *WorkflowDef {
	return &WorkflowDef{Name: "lit", Tasks: []*TaskDef{
		{Name: "merge", Cores: 1, DurationSec: 30, OverheadSec: 5, After: []string{"align", "stats"}},
		{Name: "align", Cores: 2, DurationSec: 100, OverheadSec: 10, Scatter: 3, After: []string{"prep"}},
		{Name: "stats", Cores: 1, DurationSec: 20},
		{Name: "prep", Cores: 1, DurationSec: prepDur, OverheadSec: 5},
	}}
}

// A struct-literal def expands exactly as it compiles: the expander hands
// out Compile's tasks, each under its eager insertion index.
func TestLiteralDefExpandMatchesCompile(t *testing.T) {
	w, err := literalDef(60).Compile()
	if err != nil {
		t.Fatal(err)
	}
	x, err := literalDef(60).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if x.Total() != w.Len() {
		t.Fatalf("Total = %d, want %d", x.Total(), w.Len())
	}
	want := w.Tasks()
	var got []dag.TaskID
	for len(got) < len(want) {
		var ready []dag.TaskID
		for task, idx, ok := x.Next(); ok; task, idx, ok = x.Next() {
			if task.ID != want[idx].ID || task.NominalDur != want[idx].NominalDur {
				t.Fatalf("index %d: got %s (%g), want %s (%g)", idx, task.ID, task.NominalDur, want[idx].ID, want[idx].NominalDur)
			}
			ready = append(ready, task.ID)
			x.Retire(task)
		}
		if len(ready) == 0 {
			t.Fatalf("expander stalled after %v", got)
		}
		for _, id := range ready {
			x.TaskDone(id)
		}
		got = append(got, ready...)
	}
}

// Call caching on struct-literal defs sees upstream changes: after prep's
// duration changes, every downstream shard's signature changes with it.
func TestLiteralDefUpstreamChangeRerunsAll(t *testing.T) {
	eng := sim.NewEngine()
	cl, store := testSite(eng, 4, 8)
	e := NewEngine(cl, store)
	e.CallCaching = true
	if _, err := e.Run(literalDef(60), "u"); err != nil {
		t.Fatal(err)
	}
	changed := literalDef(90)
	r, err := e.Run(changed, "u")
	if err != nil {
		t.Fatal(err)
	}
	// stats is unchanged and upstream of nothing that changed: one hit.
	if r.ShardsExecuted != changed.TotalShards()-1 || r.CacheHits != 1 {
		t.Fatalf("executed %d shards with %d hits, want %d and 1",
			r.ShardsExecuted, r.CacheHits, changed.TotalShards()-1)
	}
}

// A fused task lists its external dependencies in the order the chain first
// names them, on every call.
func TestFuseExternalDepsInFirstSeenOrder(t *testing.T) {
	def := mustParse(t, `
workflow w
task a dur=1s
task b dur=1s
task c dur=1s
task d dur=1s
task x dur=1s after=a,b
task y dur=1s after=x,c,a,d
`)
	for i := 0; i < 50; i++ {
		fused, err := Fuse(def, []string{"x", "y"})
		if err != nil {
			t.Fatal(err)
		}
		if got := fused.Task("x+y").After; !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
			t.Fatalf("call %d: After = %v, want [a b c d]", i, got)
		}
	}
}

// runLog is a FIFO that records, by submission ID, the node and the
// [start, finish] interval of every attempt it places.
type runLog struct {
	rm.FIFO
	runs map[string]string
}

func (l *runLog) PickNode(s *rm.Submission, candidates []*cluster.Node) *cluster.Node {
	n := l.FIFO.PickNode(s, candidates)
	if n != nil {
		s.Hooks = loggedRun{SubmissionHooks: s.Hooks, log: l, id: s.ID()}
	}
	return n
}

type loggedRun struct {
	rm.SubmissionHooks
	log *runLog
	id  string
}

func (h loggedRun) Done(r rm.Result) {
	h.log.runs[h.id] = fmt.Sprintf("node %d [%g, %g]", r.Node.ID, float64(r.StartedAt), float64(r.FinishedAt))
	h.SubmissionHooks.Done(r)
}

// equivalenceSite is a contended two-speed site, so placement and order
// show in every shard's interval.
func equivalenceSite() *cluster.Cluster {
	return cluster.New(sim.NewEngine(), "site",
		cluster.Spec{Type: cluster.NodeType{Name: "slow", Cores: 6, MemBytes: 64e9}, Count: 2},
		cluster.Spec{Type: cluster.NodeType{Name: "fast", Cores: 4, MemBytes: 64e9, SpeedFactor: 2}, Count: 1},
	)
}

// equivalenceDefs returns randomized layered defs declared in shuffled
// order, plus a diamond whose branches are declared against Kahn order.
func equivalenceDefs() []*WorkflowDef {
	var defs []*WorkflowDef
	for seed := int64(1); seed <= 40; seed++ {
		def := randomDef(seed)
		def.Name = fmt.Sprintf("rand%d", seed)
		perm := randx.New(seed + 1000).Perm(make([]int, len(def.Tasks)))
		shuffled := make([]*TaskDef, len(def.Tasks))
		for i, j := range perm {
			shuffled[i] = def.Tasks[j]
		}
		def.Tasks = shuffled
		defs = append(defs, def)
	}
	defs = append(defs, &WorkflowDef{Name: "diamond", Tasks: []*TaskDef{
		{Name: "join", Cores: 2, DurationSec: 40, OverheadSec: 3, After: []string{"right", "left"}},
		{Name: "right", Cores: 3, DurationSec: 70, OverheadSec: 7, Scatter: 5, After: []string{"top"}},
		{Name: "left", Cores: 1, DurationSec: 50, OverheadSec: 9, Scatter: 7, After: []string{"top"}},
		{Name: "top", Cores: 2, DurationSec: 25, OverheadSec: 4, Scatter: 3},
	}})
	return defs
}

// Fault-free, uncached and uncapped, the engine is Compile + StreamRunner
// over a dag.WorkflowExpander: on identical sites, every shard runs on the
// same node over the same interval under the same ID, and the makespans
// agree. Sibling defs readied by one completion therefore go in Kahn order
// on both paths.
func TestEngineMatchesCompiledStreamRun(t *testing.T) {
	for _, def := range equivalenceDefs() {
		cl := equivalenceSite()
		e := NewEngine(cl, storage.NewStore("scratch", 0, 0, 0))
		engLog := &runLog{runs: map[string]string{}}
		e.mgr.SetStrategy(engLog)
		rep, err := e.Run(def, "u")
		if err != nil {
			t.Fatal(err)
		}

		w, err := def.Compile()
		if err != nil {
			t.Fatal(err)
		}
		wx, err := dag.NewWorkflowExpander(w)
		if err != nil {
			t.Fatal(err)
		}
		runnerLog := &runLog{runs: map[string]string{}}
		sr := &rm.StreamRunner{
			Manager:    rm.NewTaskManager(equivalenceSite(), runnerLog),
			Source:     wx,
			WorkflowID: "u/" + def.Name,
			Runtime: func(t *dag.Task, n *cluster.Node) float64 {
				d := def.Task(t.Name)
				return d.OverheadSec + d.DurationSec/n.Type.SpeedFactor
			},
		}
		makespan := sr.Run()

		if len(engLog.runs) != def.TotalShards() {
			t.Fatalf("%s: engine ran %d shards, want %d", def.Name, len(engLog.runs), def.TotalShards())
		}
		if !reflect.DeepEqual(engLog.runs, runnerLog.runs) {
			for id, run := range runnerLog.runs {
				if engLog.runs[id] != run {
					t.Errorf("%s: %s ran %q under the engine, %q compiled", def.Name, id, engLog.runs[id], run)
				}
			}
			t.FailNow()
		}
		if rep.Makespan != makespan {
			t.Fatalf("%s: engine makespan %v, compiled %v", def.Name, rep.Makespan, makespan)
		}
	}
}

// A shard wider than every node stalls the workflow, and Run returns the
// runner's *rm.StallError.
func TestEngineRunStallReturnsStallError(t *testing.T) {
	cl := cluster.New(sim.NewEngine(), "site", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 4, MemBytes: 64e9},
		Count: 2,
	})
	e := NewEngine(cl, storage.NewStore("scratch", 0, 0, 0))
	def := &WorkflowDef{Name: "wide", Tasks: []*TaskDef{
		{Name: "prep", Cores: 1, DurationSec: 10},
		{Name: "align", Cores: 8, DurationSec: 10, Scatter: 2, After: []string{"prep"}},
	}}
	_, err := e.Run(def, "u")
	var se *rm.StallError
	if !errors.As(err, &se) || se.Done != 1 || se.Total != 3 {
		t.Fatalf("err = %v, want a 1/3 *rm.StallError", err)
	}
}
