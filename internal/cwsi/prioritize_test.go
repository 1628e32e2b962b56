package cwsi

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// The dispatch overhaul replaced the CWS adapter's O(n²) insertion sort with
// a cached-key stable sort. These tests pin the two contracts that replace
// rested on: a length ≤ 1 queue must not touch the strategy at all, and the
// produced order must match the historical insertion-sort kernel exactly —
// including tie handling, where equal priorities keep submission order.

// keyedStrategy returns per-submission priorities from a map and counts how
// often Priority is consulted.
type keyedStrategy struct {
	keys  map[string]float64
	calls int
}

func (s *keyedStrategy) Name() string { return "keyed" }
func (s *keyedStrategy) Priority(sub *rm.Submission, _ *Context) float64 {
	s.calls++
	return s.keys[string(sub.TaskID)]
}
func (s *keyedStrategy) PickNode(_ *rm.Submission, candidates []*cluster.Node, _ *Context) *cluster.Node {
	return candidates[0]
}

func newTestAdapter(strat Strategy) *rmAdapter {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "t", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 8, MemBytes: 64e9},
		Count: 1,
	})
	mgr := rm.NewTaskManager(cl, nil)
	return &rmAdapter{cws: New(mgr, strat, nil)}
}

func TestPrioritizeSingletonFastPath(t *testing.T) {
	strat := &keyedStrategy{keys: map[string]float64{"a": 5}}
	a := newTestAdapter(strat)
	if got := a.Prioritize(nil); got != nil {
		t.Fatalf("Prioritize(nil) = %v", got)
	}
	one := []*rm.Submission{{TaskID: "a"}}
	got := a.Prioritize(one)
	if len(got) != 1 || got[0] != one[0] {
		t.Fatalf("singleton reordered: %v", got)
	}
	if strat.calls != 0 {
		t.Fatalf("Priority consulted %d times for queues of length <= 1, want 0", strat.calls)
	}
}

// referencePrioritize is the historical O(n²) kernel, kept verbatim as the
// test-only reference: stable insertion into descending-priority order, so
// equal keys stay in submission order.
func referencePrioritize(pending []*rm.Submission, prio func(*rm.Submission) float64) []*rm.Submission {
	out := append([]*rm.Submission(nil), pending...)
	for i := 1; i < len(out); i++ {
		s := out[i]
		k := prio(s)
		j := i - 1
		for j >= 0 && prio(out[j]) < k {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = s
	}
	return out
}

func TestPrioritizeMatchesInsertionSortReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := randx.New(seed)
		for _, n := range []int{2, 3, 7, 16, 40} {
			strat := &keyedStrategy{keys: map[string]float64{}}
			a := newTestAdapter(strat)
			pending := make([]*rm.Submission, n)
			for i := range pending {
				id := fmt.Sprintf("s%02d", i)
				pending[i] = &rm.Submission{TaskID: dag.TaskID(id)}
				// Few distinct keys forces heavy ties, the case where an
				// unstable sort would diverge from the insertion kernel.
				strat.keys[id] = float64(r.Intn(4))
			}
			want := referencePrioritize(pending, func(s *rm.Submission) float64 {
				return strat.keys[string(s.TaskID)]
			})
			got := a.Prioritize(append([]*rm.Submission(nil), pending...))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d n %d: order diverges at %d: got %s want %s",
						seed, n, i, got[i].TaskID, want[i].TaskID)
				}
			}
		}
	}
}

// TestPrioritizeCacheInvalidation pins the memoization contract: priorities
// are computed once per submission per generation, and recomputed after the
// generation advances (provenance updates and new workflows bump it).
func TestPrioritizeCacheInvalidation(t *testing.T) {
	strat := &keyedStrategy{keys: map[string]float64{"a": 1, "b": 2, "c": 3}}
	a := newTestAdapter(strat)
	pending := []*rm.Submission{{TaskID: "a"}, {TaskID: "b"}, {TaskID: "c"}}
	a.Prioritize(pending)
	if strat.calls != 3 {
		t.Fatalf("first pass consulted Priority %d times, want 3", strat.calls)
	}
	a.Prioritize(pending)
	if strat.calls != 3 {
		t.Fatalf("second pass re-consulted Priority (calls=%d): cache not hit", strat.calls)
	}
	a.cws.prioGen++ // what provenance updates do
	a.Prioritize(pending)
	if strat.calls != 6 {
		t.Fatalf("post-invalidation pass consulted Priority %d times, want 6", strat.calls)
	}
}

// FuzzPrioritizeMatchesStableSort checks the dispatch order against
// slices.SortStableFunc by descending key, on key vectors with heavy ties
// and on already-ordered, reversed and constant ones: mode%4 selects random,
// non-increasing, non-decreasing or constant keys. The already-ordered
// vectors take Prioritize's no-sort path, the rest the stable sort.
func FuzzPrioritizeMatchesStableSort(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(0))
	f.Add([]byte{0, 0, 1, 1, 0, 2, 2, 0, 1}, uint8(0))
	f.Add([]byte{9, 7, 7, 3, 3, 3, 1}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}, uint8(2))
	f.Add([]byte{4, 4, 4, 4, 4, 4}, uint8(3))
	a := newTestAdapter(FileSize{}) // priority = InputBytes
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		keys := make([]float64, len(data))
		for i, b := range data {
			keys[i] = float64(int(b%6) - 2) // six distinct keys: heavy ties
		}
		switch mode % 4 {
		case 1:
			slices.SortFunc(keys, func(x, y float64) int { return cmp.Compare(y, x) })
		case 2:
			slices.Sort(keys)
		case 3:
			for i := range keys {
				keys[i] = keys[0]
			}
		}
		pending := make([]*rm.Submission, len(keys))
		for i, k := range keys {
			pending[i] = &rm.Submission{TaskID: dag.TaskID(fmt.Sprint(i)), InputBytes: k}
		}
		want := slices.Clone(pending)
		slices.SortStableFunc(want, func(x, y *rm.Submission) int { return cmp.Compare(y.InputBytes, x.InputBytes) })
		got := a.Prioritize(slices.Clone(pending))
		if !slices.Equal(got, want) {
			t.Fatalf("keys %v: order %v, want %v", keys, taskIDs(got), taskIDs(want))
		}
	})
}

func taskIDs(subs []*rm.Submission) []dag.TaskID {
	out := make([]dag.TaskID, len(subs))
	for i, s := range subs {
		out[i] = s.TaskID
	}
	return out
}
