package rm

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// Queue-wait accounting property, checked over random submit/cancel/abort/
// node-churn tapes (the crosscheck harness's generator; a cancel aborts a
// submission only while it is pending):
//
//   - QueueWait() is exactly the sum, in start order, of the waits of the
//     submissions that actually started on a node, and counts exactly them —
//     nothing more, nothing less. In particular submissions aborted while
//     pending NEVER contribute. The reference sum is built in the same
//     order, so the comparison is exact.
//   - Every started submission's Result carries that same wait.
//   - Abort of a still-pending submission yields a terminal Result with
//     Node == nil whose QueueWait() covers the full pending span (StartedAt
//     pinned to the abort time, as documented on Abort) — and that wait does
//     not leak into the manager's QueueWait().
//   - Aborted entries leave the queue: at drain the pending queue counts
//     exactly the submissions that never started and never ended.
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
		subs := make(map[string]*Submission)
		cancelled := make(map[string]bool)
		wantSum := 0.0
		for _, op := range tape {
			op := op
			switch op.Op {
			case "submit":
				eng.At(sim.Time(op.At), func() {
					submitted[op.ID] = eng.Now()
					subs[op.ID] = &Submission{
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
					}
					m.Submit(subs[op.ID])
				})
			case "cancel", "abort":
				eng.At(sim.Time(op.At), func() {
					if tapeAbort(m, subs[op.ID], op.Op == "cancel") && op.Op == "cancel" {
						cancelled[op.ID] = true
					}
				})
			case "fail":
				eng.At(sim.Time(op.At), func() { cl.FailNode(cl.Nodes()[op.Node]) })
			case "repair":
				eng.At(sim.Time(op.At), func() { cl.RepairNode(cl.Nodes()[op.Node]) })
			}
		}
		eng.Run()

		// A cancel found its submission pending, so it finished failed
		// without a node, as one of the pending aborts counted below.
		for id := range cancelled {
			if r, ok := results[id]; !ok || r.Node != nil || !r.Failed {
				t.Fatalf("seed %d: cancelled %s ended as %+v (%v), want a nodeless failure", seed, id, r, ok)
			}
		}
		pendingAborts := 0
		for id, r := range results {
			if r.SubmittedAt != submitted[id] {
				t.Fatalf("seed %d: %s SubmittedAt=%v, submitted at %v", seed, id, r.SubmittedAt, submitted[id])
			}
			if r.Node != nil {
				// Started on a node: its wait must appear in QueueWait,
				// whether it later completed, failed, or was aborted running.
				if w, ok := startWait[id]; !ok || w != float64(r.StartedAt-r.SubmittedAt) {
					t.Fatalf("seed %d: %s result wait %v, recorded at start %v (%v)",
						seed, id, r.StartedAt-r.SubmittedAt, w, ok)
				}
				continue
			}
			// Never started: only Abort-while-pending produces a terminal
			// result without a node.
			pendingAborts++
			if !r.Failed || r.Err == nil {
				t.Fatalf("seed %d: %s nodeless result not a failure: %+v", seed, id, r)
			}
			if r.StartedAt != r.FinishedAt {
				t.Fatalf("seed %d: %s pending abort StartedAt=%v FinishedAt=%v", seed, id, r.StartedAt, r.FinishedAt)
			}
			if r.QueueWait() < 0 {
				t.Fatalf("seed %d: %s negative pending-abort wait %v", seed, id, r.QueueWait())
			}
		}

		sum, started := m.QueueWait()
		if started != len(startWait) || started != len(results)-pendingAborts {
			t.Fatalf("seed %d: QueueWait counts %d starts, want %d started submissions (%d pending aborts, %d results)",
				seed, started, len(startWait), pendingAborts, len(results))
		}
		if sum != wantSum {
			t.Fatalf("seed %d: QueueWait sum %v, start-order reference %v", seed, sum, wantSum)
		}
		// The leftover queue at drain: whatever never became feasible, minus
		// everything aborted or placed.
		if want := len(submitted) - len(results); len(m.pending) != want {
			t.Fatalf("seed %d: final queue %d, want %d live pending", seed, len(m.pending), want)
		}
	}
}
