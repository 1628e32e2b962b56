package rm

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/sim"
)

// backfillScenario submits the canonical EASY shape on one 4-core node:
// A (3 cores, 100s) runs immediately, B (4 cores, the hole owner) blocks
// until the node drains, C (1 core, 50s) fits the hole, D (1 core, 200s)
// does not. Durations are exact, so an oracle returning the true runtime
// is a perfect predictor. strat nil is the manager's FIFO default. Returns
// each submission's start time.
func backfillScenario(t *testing.T, strat Strategy, withOracle bool) map[string]sim.Time {
	t.Helper()
	eng := sim.NewEngine()
	m := NewTaskManager(cluster.New(eng, "t", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 4, MemBytes: 1e12},
		Count: 1,
	}), strat)
	durs := map[string]float64{"A": 100, "B": 100, "C": 50, "D": 200}
	if withOracle {
		m.SetDurationOracle(func(s *Submission, n *cluster.Node) (float64, bool) {
			return durs[string(s.TaskID)], true
		})
	}
	starts := map[string]sim.Time{}
	done := func(r Result) { starts[string(r.Submission.TaskID)] = r.StartedAt }
	m.Submit(&Submission{TaskID: "A", Cores: 3, Runtime: fixedRuntime(100), Done: done})
	m.Submit(&Submission{TaskID: "B", Cores: 4, Runtime: fixedRuntime(100), Done: done})
	m.Submit(&Submission{TaskID: "C", Cores: 1, Runtime: fixedRuntime(50), Done: done})
	m.Submit(&Submission{TaskID: "D", Cores: 1, Runtime: fixedRuntime(200), Done: done})
	eng.Run()
	if len(starts) != 4 {
		t.Fatalf("only %d of 4 submissions completed: %v", len(starts), starts)
	}
	return starts
}

// TestBackfillNoHoleOwnerDelay pins the EASY invariant the predicted
// backfill must honor: a candidate may slip into the reservation hole only
// if its predicted runtime finishes before the shadow time, so the hole
// owner starts exactly when its reservation promised — backfill never
// delays it. C (50s <= shadow 100) backfills at t=0; D (200s > shadow) is
// held even though a core is idle, and B launches the instant A drains.
func TestBackfillNoHoleOwnerDelay(t *testing.T) {
	starts := backfillScenario(t, nil, true)
	if starts["A"] != 0 {
		t.Errorf("A started at %v, want 0", starts["A"])
	}
	if starts["C"] != 0 {
		t.Errorf("C started at %v, want 0 (fits the hole: 0+50 <= shadow 100)", starts["C"])
	}
	if starts["B"] != 100 {
		t.Errorf("hole owner B started at %v, want exactly its shadow time 100", starts["B"])
	}
	if starts["D"] != 200 {
		t.Errorf("D started at %v, want 200 (held out of the hole, runs after B)", starts["D"])
	}
}

// TestBackfillGreedyDelaysOwnerWithoutOracle is the contrast run: with no
// duration oracle there is no reservation, the greedy pass lets D jump the
// queue at t=50, and the 4-core owner B is starved until t=250. The delta
// against TestBackfillNoHoleOwnerDelay is exactly what the prediction loop
// buys.
func TestBackfillGreedyDelaysOwnerWithoutOracle(t *testing.T) {
	starts := backfillScenario(t, nil, false)
	if starts["D"] != 50 {
		t.Errorf("D started at %v, want 50 (greedy hole-jump when C frees a core)", starts["D"])
	}
	if starts["B"] != 250 {
		t.Errorf("B started at %v, want 250 (starved behind D)", starts["B"])
	}
}

// TestBackfillColdOracleIsGreedy pins the warmth contract at the manager
// level: an oracle that answers ok=false for every submission must schedule
// bit-identically to no oracle at all — no reservation is ever made.
func TestBackfillColdOracleIsGreedy(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(cluster.New(eng, "t", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 4, MemBytes: 1e12},
		Count: 1,
	}), nil)
	m.SetDurationOracle(func(s *Submission, n *cluster.Node) (float64, bool) { return 0, false })
	starts := map[string]sim.Time{}
	done := func(r Result) { starts[string(r.Submission.TaskID)] = r.StartedAt }
	m.Submit(&Submission{TaskID: "A", Cores: 3, Runtime: fixedRuntime(100), Done: done})
	m.Submit(&Submission{TaskID: "B", Cores: 4, Runtime: fixedRuntime(100), Done: done})
	m.Submit(&Submission{TaskID: "C", Cores: 1, Runtime: fixedRuntime(50), Done: done})
	m.Submit(&Submission{TaskID: "D", Cores: 1, Runtime: fixedRuntime(200), Done: done})
	eng.Run()
	if starts["D"] != 50 || starts["B"] != 250 {
		t.Fatalf("cold oracle diverged from greedy: D@%v (want 50), B@%v (want 250)",
			starts["D"], starts["B"])
	}
}

// TestBackfillFirstFitSkipsReservedNode pins the resumed search: on two
// 4-core nodes, A (3 cores, 100s) takes n0 and B (3 cores, 300s) takes n1;
// the 4-core owner H reserves n0, which frees first (shadow 100). S (1 core,
// 200s) fits n0's hole by capacity but would overrun the shadow, so it must
// pass n0 over and start at once on n1 — in the first-fit descent as in the
// filtered candidate list.
func TestBackfillFirstFitSkipsReservedNode(t *testing.T) {
	for _, strat := range []Strategy{nil, hiddenFirstFit{FIFO{}}} {
		eng := sim.NewEngine()
		m := NewTaskManager(cluster.New(eng, "t", cluster.Spec{
			Type:  cluster.NodeType{Name: "n", Cores: 4, MemBytes: 1e12},
			Count: 2,
		}), strat)
		durs := map[string]float64{"A": 100, "B": 300, "H": 100, "S": 200}
		m.SetDurationOracle(func(s *Submission, n *cluster.Node) (float64, bool) {
			return durs[string(s.TaskID)], true
		})
		starts := map[string]sim.Time{}
		nodes := map[string]int{}
		done := func(r Result) {
			starts[string(r.Submission.TaskID)], nodes[string(r.Submission.TaskID)] = r.StartedAt, r.Node.ID
		}
		for _, id := range []string{"A", "B", "H", "S"} {
			cores := map[string]int{"A": 3, "B": 3, "H": 4, "S": 1}[id]
			m.Submit(&Submission{TaskID: dag.TaskID(id), Cores: cores, Runtime: fixedRuntime(durs[id]), Done: done})
		}
		eng.Run()
		if starts["S"] != 0 || nodes["S"] != 1 {
			t.Errorf("strategy %v: S started at %v on node %d, want 0 on node 1", strat, starts["S"], nodes["S"])
		}
		if starts["H"] != 100 || nodes["H"] != 0 {
			t.Errorf("strategy %v: owner H started at %v on node %d, want its shadow 100 on node 0", strat, starts["H"], nodes["H"])
		}
	}
}
