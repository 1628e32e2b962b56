package sim

// Cross-check tests for the event queue (sorted run plus 4-ary heap). A
// reference engine built on container/heap (the pre-optimization
// implementation, kept here verbatim in miniature) runs the same randomized
// schedules as the real Engine; the observable firing sequences must match
// event for event. These tests are the license to optimize the hot path: any
// ordering bug the rework could introduce — tie-break, cancellation,
// batching, deadline — shows up as a divergence from the reference.

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"hhcw/internal/steady"
)

// refEvent / refQueue / refEngine mirror the original container/heap-based
// kernel: an `any`-boxed binary heap ordered by (at, seq).
type refEvent struct {
	at     Time
	seq    uint64
	fn     func()
	cancel bool
	// done marks an event popped (fired or discarded) or dropped by reset.
	done bool
}

// pending is Event.Pending's reference: queued and not cancelled.
func (ev *refEvent) pending() bool { return !ev.done && !ev.cancel }

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	e.done = true
	return e
}

type refEngine struct {
	now    Time
	seq    uint64
	queue  refQueue
	fired  uint64
	halted bool
}

func (e *refEngine) at(t Time, fn func()) *refEvent {
	e.seq++
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) runUntil(deadline Time) Time {
	e.halted = false
	for len(e.queue) > 0 && !e.halted {
		next := e.queue[0]
		if next.at > deadline {
			break
		}
		heap.Pop(&e.queue)
		if next.cancel {
			continue
		}
		e.now = next.at
		e.fired++
		next.fn()
	}
	if deadline != Never && e.now < deadline && !e.halted {
		e.now = deadline
	}
	return e.now
}

// step pops events one at a time until one that is not cancelled fires.
func (e *refEngine) step() bool {
	for len(e.queue) > 0 {
		next := heap.Pop(&e.queue).(*refEvent)
		if next.cancel {
			continue
		}
		e.now = next.at
		e.fired++
		next.fn()
		return true
	}
	return false
}

func (e *refEngine) reset() {
	for _, ev := range e.queue {
		ev.done = true
	}
	*e = refEngine{queue: e.queue[:0]}
}

// firing is one observed event execution.
type firing struct {
	at Time
	id int
}

// TestHeapCrossCheckFIFO runs hundreds of random schedules with dense
// timestamp collisions on both engines and requires identical firing
// sequences — the FIFO tie-break property checked against the reference
// implementation rather than against itself.
func TestHeapCrossCheckFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		e := NewEngine()
		ref := &refEngine{}
		n := 1 + rng.Intn(60)
		distinct := 1 + rng.Intn(6)
		var got, want []firing
		for i := 0; i < n; i++ {
			i := i
			at := Time(rng.Intn(distinct))
			e.At(at, func() { got = append(got, firing{at, i}) })
			ref.at(at, func() { want = append(want, firing{at, i}) })
		}
		e.Run()
		ref.runUntil(Never)
		if len(got) != len(want) {
			t.Fatalf("iter %d: fired %d events, reference fired %d", iter, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("iter %d: firing %d = %+v, reference %+v", iter, j, got[j], want[j])
			}
		}
		if e.Now() != ref.now || e.Fired() != ref.fired {
			t.Fatalf("iter %d: clock/fired = %v/%d, reference %v/%d",
				iter, e.Now(), e.Fired(), ref.now, ref.fired)
		}
	}
}

// TestHeapCrossCheckCancel randomly cancels a subset of events — some before
// any run, some from inside handlers — and requires both engines to fire the
// identical surviving sequence.
func TestHeapCrossCheckCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 400; iter++ {
		e := NewEngine()
		ref := &refEngine{}
		n := 2 + rng.Intn(50)
		distinct := 1 + rng.Intn(6)
		var got, want []firing
		evs := make([]Event, n)
		refs := make([]*refEvent, n)
		// cancelFrom[i] >= 0 means handler i cancels that event when it fires.
		cancelFrom := make([]int, n)
		for i := range cancelFrom {
			cancelFrom[i] = -1
			if rng.Intn(3) == 0 {
				cancelFrom[i] = rng.Intn(n)
			}
		}
		for i := 0; i < n; i++ {
			i := i
			at := Time(rng.Intn(distinct))
			evs[i] = e.At(at, func() {
				got = append(got, firing{at, i})
				if c := cancelFrom[i]; c >= 0 {
					evs[c].Cancel()
				}
			})
			refs[i] = ref.at(at, func() {
				want = append(want, firing{at, i})
				if c := cancelFrom[i]; c >= 0 {
					refs[c].cancel = true
				}
			})
		}
		// Up-front cancellations too.
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				evs[i].Cancel()
				refs[i].cancel = true
			}
		}
		e.Run()
		ref.runUntil(Never)
		if len(got) != len(want) {
			t.Fatalf("iter %d: fired %d events, reference fired %d", iter, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("iter %d: firing %d = %+v, reference %+v", iter, j, got[j], want[j])
			}
		}
	}
}

// TestHeapCrossCheckInterleaved drives both engines through random
// interleavings of scheduling-from-handlers and RunUntil segments with
// random deadlines — the access pattern of the real substrates.
func TestHeapCrossCheckInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 200; iter++ {
		e := NewEngine()
		ref := &refEngine{}
		var got, want []firing
		id := 0
		var spawnGot func(depth, myID int) func()
		var spawnWant func(depth, myID int) func()
		// Both engines replay the same decision tape.
		type decision struct {
			n      int
			delays []Time
		}
		tape := map[int]decision{}
		// Every third iteration gives all children one delay: the wave of
		// equal timers that the queue's sorted run absorbs.
		equalDelay := Time(-1)
		if iter%3 == 0 {
			equalDelay = Time(1 + rng.Intn(6))
		}
		decide := func(myID int) decision {
			d, ok := tape[myID]
			if !ok {
				d.n = rng.Intn(3)
				for k := 0; k < d.n; k++ {
					delay := Time(rng.Intn(7))
					if equalDelay >= 0 {
						delay = equalDelay
					}
					d.delays = append(d.delays, delay)
				}
				tape[myID] = d
			}
			return d
		}
		nextID := func() int { id++; return id }
		spawnGot = func(depth, myID int) func() {
			return func() {
				got = append(got, firing{e.Now(), myID})
				if depth <= 0 {
					return
				}
				d := decide(myID)
				for k := 0; k < d.n; k++ {
					e.After(d.delays[k], spawnGot(depth-1, myID*100+k+1))
				}
			}
		}
		spawnWant = func(depth, myID int) func() {
			return func() {
				want = append(want, firing{ref.now, myID})
				if depth <= 0 {
					return
				}
				d := decide(myID)
				for k := 0; k < d.n; k++ {
					at := ref.now + d.delays[k]
					ref.at(at, spawnWant(depth-1, myID*100+k+1))
				}
			}
		}
		nRoots := 1 + rng.Intn(5)
		for i := 0; i < nRoots; i++ {
			at := Time(rng.Intn(5))
			rootID := nextID() * 1000000
			e.At(at, spawnGot(3, rootID))
			ref.at(at, spawnWant(3, rootID))
		}
		// Run in randomly sized deadline segments, then drain.
		deadline := Time(0)
		for seg := 0; seg < 4; seg++ {
			deadline += Time(rng.Intn(10))
			e.RunUntil(deadline)
			ref.runUntil(deadline)
			if e.Now() != ref.now {
				t.Fatalf("iter %d seg %d: clock %v vs reference %v", iter, seg, e.Now(), ref.now)
			}
			if e.Pending() != len(ref.queue) {
				t.Fatalf("iter %d seg %d: pending %d vs reference %d", iter, seg, e.Pending(), len(ref.queue))
			}
		}
		e.Run()
		ref.runUntil(Never)
		if len(got) != len(want) {
			t.Fatalf("iter %d: fired %d events, reference fired %d", iter, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("iter %d: firing %d = %+v, reference %+v", iter, j, got[j], want[j])
			}
		}
	}
}

// TestBatchHaltMidCohort halts the engine in the middle of a same-timestamp
// cohort; the remainder must stay pending, survive a RunUntil with an
// earlier deadline untouched, and then drain in FIFO order via both Step and
// Run.
func TestBatchHaltMidCohort(t *testing.T) {
	e := NewEngine()
	var fired []int
	for i := 0; i < 6; i++ {
		i := i
		e.At(5, func() {
			fired = append(fired, i)
			if i == 1 {
				e.Halt()
			}
		})
	}
	e.Run()
	if len(fired) != 2 || e.Pending() != 4 {
		t.Fatalf("after halt: fired=%v pending=%d", fired, e.Pending())
	}
	// An earlier deadline must not fire the t=5 remainder.
	e.RunUntil(3)
	if len(fired) != 2 {
		t.Fatalf("earlier deadline fired batch remainder: %v", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("clock moved backwards: %v", e.Now())
	}
	// Step drains the remainder one at a time, in order.
	if !e.Step() || len(fired) != 3 || fired[2] != 2 {
		t.Fatalf("Step on remainder: fired=%v", fired)
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5}
	if len(fired) != 6 {
		t.Fatalf("drain: fired=%v", fired)
	}
	for i, v := range want {
		if fired[i] != v {
			t.Fatalf("order after halt/resume: %v", fired)
		}
	}
}

// TestBatchCancelWithinCohort: an early cohort member cancelling a later one
// must suppress it even though both were popped in the same batch.
func TestBatchCancelWithinCohort(t *testing.T) {
	e := NewEngine()
	var fired []int
	var evs [4]Event
	for i := 0; i < 4; i++ {
		i := i
		evs[i] = e.At(1, func() {
			fired = append(fired, i)
			if i == 0 {
				evs[2].Cancel()
			}
		})
	}
	e.Run()
	if len(fired) != 3 || fired[0] != 0 || fired[1] != 1 || fired[2] != 3 {
		t.Fatalf("fired = %v, want [0 1 3]", fired)
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", e.Fired())
	}
}

// TestBatchSameTimeScheduling: events scheduled at the current timestamp
// from inside a cohort fire after the whole cohort, in scheduling order.
func TestBatchSameTimeScheduling(t *testing.T) {
	e := NewEngine()
	var fired []int
	for i := 0; i < 3; i++ {
		i := i
		e.At(2, func() {
			fired = append(fired, i)
			e.At(e.Now(), func() { fired = append(fired, 10+i) })
		})
	}
	e.Run()
	want := []int{0, 1, 2, 10, 11, 12}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

// TestZeroDelayLane pins where a zero-delay event goes. Scheduled at the
// cohort's time from inside a cohort callback, it is appended to the batch
// and the queue is not touched; scheduled later, or under Step, it is
// queued. It fires after the rest of its cohort either way.
func TestZeroDelayLane(t *testing.T) {
	e := NewEngine()
	var fired []int
	for i := 0; i < 3; i++ {
		e.At(2, func() {
			fired = append(fired, i)
			if i != 0 {
				return
			}
			queued := e.queue.len()
			h := e.At(e.Now(), func() { fired = append(fired, 10) })
			if last := e.batch[len(e.batch)-1]; last != h.rec || e.queue.len() != queued {
				t.Errorf("At(Now()) in a cohort: batch tail %p, want %p; queue %d, want %d",
					last, h.rec, e.queue.len(), queued)
			}
			e.At(e.Now()+1, func() { fired = append(fired, 20) })
			if e.queue.len() != queued+1 {
				t.Errorf("At(Now()+1) in a cohort: queue %d, want %d", e.queue.len(), queued+1)
			}
		})
	}
	e.At(5, func() { fired = append(fired, 30) })
	e.Run()
	if want := []int{0, 1, 2, 10, 20, 30}; !slices.Equal(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}

	e.At(6, func() {
		queued := e.queue.len()
		e.At(e.Now(), func() { fired = append(fired, 40) })
		if e.queue.len() != queued+1 {
			t.Errorf("At(Now()) under Step: queue %d, want %d", e.queue.len(), queued+1)
		}
	})
	if !e.Step() || !e.Step() || fired[len(fired)-1] != 40 {
		t.Fatalf("Step did not fire the zero-delay event: %v", fired)
	}
}

// TestEventAllocsAmortized locks in record recycling: once an engine has
// recycled a record, scheduling and firing an event takes it from the free
// list and allocates nothing. One run is a loop of 1024 events, so even one
// slab per eventSlabSize events would count (AllocsPerRun truncates to
// whole allocations per run).
func TestEventAllocsAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	e := NewEngine()
	fn := func() {}
	e.At(1, fn)
	e.Step()
	if n := steady.AllocsPerRun(100, func() {
		for i := 0; i < 1024; i++ {
			e.At(e.Now()+1, fn)
			e.Step()
		}
	}); n != 0 {
		t.Fatalf("1024 At+Step pairs allocate %v objects on a warm engine, want 0", n)
	}
}

// TestEventSlabNoAliasing: records are recycled, so a handle kept past its
// event — fired, fired while cancelling itself, or dropped by Reset —
// refers to a record that now serves another event. Cancelling through it
// must not touch that event; a free list without generations fails each
// case.
func TestEventSlabNoAliasing(t *testing.T) {
	e := NewEngine()
	reused := func(stale, ev Event) {
		t.Helper()
		if ev.rec != stale.rec {
			t.Fatal("the new event did not reuse the stale handle's record")
		}
		stale.Cancel()
		if stale.Pending() || !ev.Pending() {
			t.Fatalf("stale Pending = %v, reusing event Pending = %v", stale.Pending(), ev.Pending())
		}
	}
	fired := 0
	count := func() { fired++ }

	// Kept past firing.
	old := e.At(e.Now()+1, func() {})
	e.Run()
	reused(old, e.At(e.Now()+1, count))
	e.Run()

	// Cancelled from inside its own handler, after the handler reused it.
	var self Event
	self = e.At(e.Now()+1, func() {
		reused(self, e.At(e.Now()+1, count))
	})
	e.Run()

	// Kept across Reset.
	kept := e.At(e.Now()+1, func() { t.Fatal("an event dropped by Reset fired") })
	e.Reset()
	reused(kept, e.At(1, count))
	e.Run()

	if fired != 3 {
		t.Fatalf("%d of the 3 reusing events fired", fired)
	}
}
