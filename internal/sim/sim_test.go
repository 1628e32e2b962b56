package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(5, func() { got = append(got, 2) })
	e.At(1, func() { got = append(got, 0) })
	e.At(3, func() { got = append(got, 1) })
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %v, want 5", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.After(2, func() {
		times = append(times, e.Now())
		e.After(3, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 2 || times[1] != 5 {
		t.Fatalf("times = %v, want [2 5]", times)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("Pending() = false for a scheduled event")
	}
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() || (Event{}).Pending() {
		t.Fatal("Pending() = true after the discard, or on the zero Event")
	}
	(Event{}).Cancel() // the zero handle refers to nothing
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 10} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(5)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by t=5, want 3", len(fired))
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v after RunUntil(5), want 5", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining event not fired: %v", fired)
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {
			count++
			if count == 2 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d after Halt, want 2", count)
	}
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d after resume, want 5", count)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

// TestEngineNaNPanics: a NaN time compares false against everything, so a
// queued one would break the (at, seq) order the queue relies on. Both
// At(NaN) and After(NaN) must panic and leave nothing queued.
func TestEngineNaNPanics(t *testing.T) {
	for name, schedule := range map[string]func(e *Engine){
		"At":    func(e *Engine) { e.At(Time(math.NaN()), func() {}) },
		"After": func(e *Engine) { e.After(Time(math.NaN()), func() {}) },
	} {
		e := NewEngine()
		e.At(3, func() {})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NaN) did not panic", name)
				}
			}()
			schedule(e)
		}()
		if e.Pending() != 1 {
			t.Errorf("%s(NaN): pending = %d, want 1", name, e.Pending())
		}
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, func() { n++ })
	e.At(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEngineNegativeAfterClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-3, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 0 {
		t.Fatalf("negative After: fired=%v now=%v", fired, e.Now())
	}
}

// Property: for any set of scheduled times, events fire in nondecreasing time
// order and the engine's clock equals the max time.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		if len(raw) > 0 {
			max := Time(0)
			for _, r := range raw {
				if Time(r) > max {
					max = Time(r)
				}
			}
			if e.Now() != max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved scheduling from inside events preserves determinism —
// two identical runs fire identical sequences.
func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			fired = append(fired, e.Now())
			if depth <= 0 {
				return
			}
			n := rng.Intn(3)
			for i := 0; i < n; i++ {
				e.After(Time(rng.Float64()*10), func() { spawn(depth - 1) })
			}
		}
		for i := 0; i < 5; i++ {
			e.At(Time(rng.Float64()*5), func() { spawn(4) })
		}
		e.Run()
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// genSchedule builds a random schedule with heavy timestamp collisions (few
// distinct times over many events) so tie-breaking is exercised constantly.
func genSchedule(rng *rand.Rand, e *Engine, n int) []Event {
	events := make([]Event, n)
	distinct := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		events[i] = e.At(Time(rng.Intn(distinct)), func() {})
	}
	return events
}

// Property: events sharing a timestamp fire in scheduling (seq) order, for
// hundreds of random schedules with dense timestamp collisions.
func TestPropertySameTimestampSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		e := NewEngine()
		n := 1 + rng.Intn(40)
		distinct := 1 + rng.Intn(5)
		type rec struct {
			at  Time
			idx int // scheduling order
		}
		var fired []rec
		for i := 0; i < n; i++ {
			i := i
			at := Time(rng.Intn(distinct))
			e.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		e.Run()
		if len(fired) != n {
			t.Fatalf("iter %d: fired %d of %d", iter, len(fired), n)
		}
		for j := 1; j < len(fired); j++ {
			prev, cur := fired[j-1], fired[j]
			if cur.at < prev.at {
				t.Fatalf("iter %d: time order violated at %d: %v after %v", iter, j, cur.at, prev.at)
			}
			if cur.at == prev.at && cur.idx < prev.idx {
				t.Fatalf("iter %d: seq order violated at t=%v: idx %d after %d",
					iter, cur.at, cur.idx, prev.idx)
			}
		}
	}
}

// Property: Cancel is a no-op whether called before the event is popped or
// after it fired — cancelled-pending events never fire, and cancelling a
// fired event changes nothing that can be observed afterwards.
func TestPropertyCancelBeforeAndAfterPop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		e := NewEngine()
		n := 1 + rng.Intn(30)
		firedSet := make([]bool, n)
		events := make([]Event, n)
		cancelled := make([]bool, n)
		distinct := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			i := i
			events[i] = e.At(Time(rng.Intn(distinct)), func() { firedSet[i] = true })
		}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				cancelled[i] = true
				events[i].Cancel()
			}
		}
		e.Run()
		firedCount := uint64(0)
		for i := 0; i < n; i++ {
			if cancelled[i] && firedSet[i] {
				t.Fatalf("iter %d: cancelled event %d fired", iter, i)
			}
			if !cancelled[i] && !firedSet[i] {
				t.Fatalf("iter %d: live event %d never fired", iter, i)
			}
			if firedSet[i] {
				firedCount++
			}
		}
		if e.Fired() != firedCount {
			t.Fatalf("iter %d: Fired() = %d, want %d", iter, e.Fired(), firedCount)
		}
		// Cancel after firing: a pure no-op on engine state.
		now, fired, pending := e.Now(), e.Fired(), e.Pending()
		for i := 0; i < n; i++ {
			if firedSet[i] {
				events[i].Cancel()
			}
		}
		if e.Now() != now || e.Fired() != fired || e.Pending() != pending {
			t.Fatalf("iter %d: Cancel after fire mutated engine state", iter)
		}
	}
}

// Property: RunUntil never advances the clock past the deadline, fires
// exactly the events at or before it, and leaves later events queued.
func TestPropertyRunUntilDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		e := NewEngine()
		n := 1 + rng.Intn(30)
		var fired []Time
		wantBefore := 0
		deadline := Time(rng.Intn(10))
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(20))
			if at <= deadline {
				wantBefore++
			}
			e.At(at, func() { fired = append(fired, at) })
		}
		e.RunUntil(deadline)
		if len(fired) != wantBefore {
			t.Fatalf("iter %d: fired %d events by %v, want %d", iter, len(fired), deadline, wantBefore)
		}
		for _, at := range fired {
			if at > deadline {
				t.Fatalf("iter %d: event at %v fired past deadline %v", iter, at, deadline)
			}
		}
		if e.Now() > deadline {
			t.Fatalf("iter %d: clock %v past deadline %v", iter, e.Now(), deadline)
		}
		if e.Pending() != n-wantBefore {
			t.Fatalf("iter %d: %d pending, want %d", iter, e.Pending(), n-wantBefore)
		}
		// Draining the rest must pick up exactly where RunUntil stopped.
		e.Run()
		if len(fired) != n {
			t.Fatalf("iter %d: %d fired after drain, want %d", iter, len(fired), n)
		}
	}
}

// Property: Step fires exactly one non-cancelled event per call, silently
// discarding any cancelled events ahead of it, and total steps equals the
// number of live events.
func TestPropertyStepSkipsCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 300; iter++ {
		e := NewEngine()
		n := 1 + rng.Intn(30)
		live := 0
		fired := 0
		events := genSchedule(rng, e, n)
		for _, ev := range events {
			if rng.Intn(3) == 0 {
				ev.Cancel()
			} else {
				live++
			}
		}
		steps := 0
		for e.Step() {
			steps++
			if steps > n {
				t.Fatalf("iter %d: Step exceeded event count", iter)
			}
		}
		fired = int(e.Fired())
		if steps != live || fired != live {
			t.Fatalf("iter %d: steps=%d fired=%d, want %d live", iter, steps, fired, live)
		}
		if e.Pending() != 0 {
			t.Fatalf("iter %d: %d events left after Step drained", iter, e.Pending())
		}
	}
}

// Property: scheduling strictly before Now panics, scheduling at exactly Now
// or later succeeds — checked from inside handlers at random clock points.
func TestPropertyPastSchedulingPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		e := NewEngine()
		at := Time(1 + rng.Intn(50))
		offset := Time(rng.Float64() * 10)
		e.At(at, func() {
			// At exactly Now: fine.
			e.At(e.Now(), func() {})
			// Strictly in the past: must panic.
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("iter %d: scheduling at %v before now %v did not panic",
							iter, e.Now()-1-offset, e.Now())
					}
				}()
				e.At(e.Now()-1-offset, func() {})
			}()
		})
		e.Run()
	}
}

func TestAccessors(t *testing.T) {
	e := NewEngine()
	if e.Pending() != 0 || e.Fired() != 0 {
		t.Fatal("fresh engine counters")
	}
	ev := e.At(2, func() {})
	if e.Pending() != 1 || !ev.Pending() {
		t.Fatalf("pending=%d, event pending %v", e.Pending(), ev.Pending())
	}
	e.Run()
	if e.Fired() != 1 || ev.Pending() {
		t.Fatalf("fired = %d, event pending %v", e.Fired(), ev.Pending())
	}
	if Time(2).String() != "2.000s" {
		t.Fatalf("String = %q", Time(2).String())
	}
}
