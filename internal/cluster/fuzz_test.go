package cluster

import (
	"testing"

	"hhcw/internal/sim"
)

// fuzzBytes hands out input bytes, then zeros once they run out.
type fuzzBytes struct {
	b []byte
	n int
}

func (r *fuzzBytes) more() bool { return r.n < len(r.b) }

func (r *fuzzBytes) next() int {
	if r.n >= len(r.b) {
		return 0
	}
	r.n++
	return int(r.b[r.n-1])
}

// FuzzFirstFitMatchesScan builds a cluster of random node shapes and count,
// replays an allocate / release / fail / repair tape decoded from ops, and
// after every operation requires FirstFit from a random start, and
// AppendCandidates, to agree with the rescan oracle, every segment of the
// index to agree with a rebuild from its leaves, and Utilization to equal the
// integral of the allocated-core step series the test records itself.
//
// Encoding of shape: up to three (count%12, cores%17, gpus%4, mem%9 GB)
// node types, one byte per field. Each op is one byte: (op>>2)%8 eighths of
// a second pass first, then op%4 selects a mutation applied op>>5 + 1 times
// to one node before the next query, so several changes to a node land
// between two refreshes of its leaf: allocate (node, then cores%9, gpus%3,
// mem%9 GB per grant), release (per release, next% the live allocations,
// after the first only those on the first one's node), fail or repair (node
// next%nodes, alternating fail and repair from the selected one). One query
// follows: from next%(nodes+3)-1, then cores%10, gpus%3, mem%10 GB.
func FuzzFirstFitMatchesScan(f *testing.F) {
	f.Add([]byte{5, 8, 1, 4}, []byte{0, 0, 4, 0, 2, 1, 1, 0, 0})
	f.Add([]byte{7, 4, 0, 2, 9, 16, 2, 8, 3, 1, 3, 1}, []byte{0, 3, 8, 2, 8, 4, 2, 0, 0, 1, 0, 2, 5, 0, 3, 5, 7, 0, 1})
	f.Add([]byte{0}, []byte{0, 0, 1, 0, 0, 0, 0}) // empty cluster
	// Full outage of a 3×3 cluster, then full repair, querying 1 core from
	// node 0 after each step.
	var storm []byte
	for _, op := range []byte{2, 3} {
		for n := byte(0); n < 9; n++ {
			storm = append(storm, op, n, 1, 1, 0, 0)
		}
	}
	f.Add([]byte{3, 2, 0, 1, 3, 4, 1, 2, 3, 8, 2, 4}, storm)
	// Time passing between grants: two grants, a failure under the first,
	// its repair, the revoked and then the live release, a fresh grant, and
	// a failure that changes no level, so the check integrates a tail.
	f.Add([]byte{4, 8, 1, 4}, []byte{
		0, 0, 3, 0, 1, 0, 0, 0, 0, // t=0: grant 3 cores on node 0
		20, 1, 2, 0, 0, 0, 0, 0, 0, // +5/8 s: grant 2 cores on node 1
		14, 0, 0, 0, 0, 0, // +3/8 s: fail node 0 under its grant
		11, 0, 0, 0, 0, 0, // +2/8 s: repair node 0
		29, 0, 0, 0, 0, 0, // +7/8 s: release the revoked grant
		9, 0, 0, 0, 0, 0, // +2/8 s: release the live grant
		4, 2, 8, 1, 4, 0, 0, 0, 0, // +1/8 s: grant all of node 2
		6, 3, 0, 0, 0, 0, // +1/8 s: fail idle node 3
	})
	// A cohort on one node between queries: eight 1-core grants on node 0,
	// then all eight released, then fail, repair, fail, repair of node 1.
	cohort := []byte{224, 0}
	for i := 0; i < 8; i++ {
		cohort = append(cohort, 1, 0, 0)
	}
	cohort = append(cohort, 0, 1, 0, 0)
	cohort = append(cohort, 225, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0)
	cohort = append(cohort, 98, 1, 0, 1, 0, 0)
	f.Add([]byte{3, 8, 0, 4}, cohort)
	f.Fuzz(func(t *testing.T, shape, ops []byte) {
		sr := &fuzzBytes{b: shape}
		var specs []Spec
		for i := 0; i < 3 && sr.more(); i++ {
			count := sr.next() % 12
			specs = append(specs, Spec{
				Type: NodeType{
					Name:     string(rune('a' + i)),
					Cores:    sr.next() % 17,
					GPUs:     sr.next() % 4,
					MemBytes: float64(sr.next()%9) * 1e9,
				},
				Count: count,
			})
		}
		eng := sim.NewEngine()
		c := New(eng, "fz", specs...)
		nodes := c.NodeCount()
		or := &fuzzBytes{b: ops}
		var live []*Alloc
		var level coreLevel
		for or.more() {
			op := or.next()
			eng.RunUntil(eng.Now() + sim.Time((op>>2)%8)/8)
			reps := op>>5 + 1
			switch op % 4 {
			case 0:
				if nodes > 0 {
					n := c.Nodes()[or.next()%nodes]
					for r := 0; r < reps; r++ {
						if a, err := c.Allocate(n, or.next()%9, or.next()%3, float64(or.next()%9)*1e9); err == nil {
							live = append(live, a)
							level.change(eng.Now(), a.Cores)
						}
					}
				}
			case 1:
				var on *Node
				for r := 0; r < reps; r++ {
					var idx []int
					for i, a := range live {
						if on == nil || a.Node == on {
							idx = append(idx, i)
						}
					}
					if len(idx) == 0 {
						break
					}
					i := idx[or.next()%len(idx)]
					on = live[i].Node
					c.Release(live[i])
					level.change(eng.Now(), -live[i].Cores)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			case 2, 3:
				if nodes > 0 {
					n := c.Nodes()[or.next()%nodes]
					for r := 0; r < reps; r++ {
						if (int(op%4)+r)%2 == 0 {
							c.FailNode(n)
						} else {
							c.RepairNode(n)
						}
					}
				}
			}
			from := or.next()%(nodes+3) - 1
			cores, gpus, mem := or.next()%10, or.next()%3, float64(or.next()%10)*1e9
			if got, want := c.FirstFit(from, cores, gpus, mem), oracleFirstFit(c, from, cores, gpus, mem); got != want {
				t.Fatalf("FirstFit(%d, %d,%d,%v) = %v, oracle %v", from, cores, gpus, mem, got, want)
			}
			if got, want := c.AppendCandidates(nil, cores, gpus, mem), oracleFeasible(c, cores, gpus, mem); !sameNodes(got, want) {
				t.Fatalf("AppendCandidates(%d,%d,%v) = %d nodes, oracle %d", cores, gpus, mem, len(got), len(want))
			}
			checkIndexInvariants(t, c)
			checkUtilization(t, c, &level)
		}
	})
}
