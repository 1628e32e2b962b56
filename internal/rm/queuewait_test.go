package rm

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// Queue-wait accounting property, checked over random submit/node-churn
// tapes (the crosscheck harness's generator):
//
//   - QueueWait() is exactly the sum, in start order, of the waits of the
//     submissions that actually started on a node, and counts exactly them —
//     nothing more, nothing less. The reference sum is built in the same
//     order, so the comparison is exact.
//   - Every terminal Result has a node and carries that same wait: only a
//     started submission ends.
//   - At drain the pending queue counts exactly the submissions that never
//     started.
//
// The per-tenant p99 queue-wait SLO metrics in internal/service are computed
// from exactly these two sources, so this pins their provenance.
func TestQueueWaitAccountingProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		eng := sim.NewEngine()
		cl := cluster.Heterogeneous(eng, 4) // 12 nodes, three families
		m := NewTaskManager(cl, nil)
		tape := genTape(randx.New(seed*104729+11), cl.NodeCount())

		results := make(map[string]Result)
		submitted := make(map[string]sim.Time)
		startWait := make(map[string]float64)
		wantSum := 0.0
		for _, op := range tape {
			op := op
			switch op.Op {
			case "submit":
				eng.At(sim.Time(op.At), func() {
					submitted[op.ID] = eng.Now()
					m.Submit(&Submission{
						TaskID: dag.TaskID(op.ID), Cores: op.Cores, GPUs: op.GPUs, Mem: op.Mem,
						// The manager asks for the runtime once, at
						// placement: record the wait in start order.
						Runtime: func(*cluster.Node) float64 {
							w := float64(eng.Now() - submitted[op.ID])
							startWait[op.ID] = w
							wantSum += w
							return op.Dur
						},
						Done: func(r Result) {
							if _, dup := results[op.ID]; dup {
								t.Fatalf("seed %d: %s terminated twice", seed, op.ID)
							}
							results[op.ID] = r
						},
					})
				})
			case "fail":
				eng.At(sim.Time(op.At), func() { cl.FailNode(cl.Nodes()[op.Node]) })
			case "repair":
				eng.At(sim.Time(op.At), func() { cl.RepairNode(cl.Nodes()[op.Node]) })
			}
		}
		eng.Run()

		for id, r := range results {
			if r.SubmittedAt != submitted[id] {
				t.Fatalf("seed %d: %s SubmittedAt=%v, submitted at %v", seed, id, r.SubmittedAt, submitted[id])
			}
			if r.Node == nil {
				t.Fatalf("seed %d: %s ended without a node: %+v", seed, id, r)
			}
			// Started on a node: its wait must appear in QueueWait, whether
			// it later completed or its node failed under it.
			if w, ok := startWait[id]; !ok || w != float64(r.StartedAt-r.SubmittedAt) {
				t.Fatalf("seed %d: %s result wait %v, recorded at start %v (%v)",
					seed, id, r.StartedAt-r.SubmittedAt, w, ok)
			}
		}

		sum, started := m.QueueWait()
		if started != len(startWait) || started != len(results) {
			t.Fatalf("seed %d: QueueWait counts %d starts, want %d started submissions (%d results)",
				seed, started, len(startWait), len(results))
		}
		if sum != wantSum {
			t.Fatalf("seed %d: QueueWait sum %v, start-order reference %v", seed, sum, wantSum)
		}
		// The leftover queue at drain: whatever never became feasible.
		if want := len(submitted) - len(results); len(m.pending) != want {
			t.Fatalf("seed %d: final queue %d, want %d live pending", seed, len(m.pending), want)
		}
	}
}
