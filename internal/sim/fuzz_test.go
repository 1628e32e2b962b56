package sim

import (
	"fmt"
	"testing"
)

// FuzzEngineMatchesReference replays a tape of engine operations on the real
// Engine and on refEngine and, after every operation, requires the same
// firing sequence, clock, fired count and pending count, and the same
// Pending answer from every handle ever issued: records are recycled, so a
// handle kept past its event's firing, cancel or Reset must keep reading
// false while its record serves later events. It also checks the zero-delay
// lane's invariant (see laneFault), which catches a lane left open past its
// cohort even while the firing order still matches.
//
// Each operation is one byte, op%8 selecting:
//
//	0  schedule at now+last delay (repeats: the queue's sorted-run path)
//	1  schedule at now+last delay+next%4 (rising: the run's path too)
//	2  schedule at now+next%8 (often earlier than queued events: the heap's path)
//	3  cancel the event with index next%scheduled
//	4  RunUntil(now+next%10)
//	5  Step
//	6  Reset
//	7  Run
//
// A schedule reads one more byte, the handler's action a: a%4 == 1 halts
// the run (mid-cohort when others share its time), 2 schedules a child at
// now+(a>>2)%4 whose own action is a>>4, 3 cancels the event with index
// (a>>2)%scheduled. A child's firing carries its parent's id plus 1<<20.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 7})
	// A cohort of four equal timers, the second halting; then an earlier
	// deadline, a Step into the remainder and a drain.
	f.Add([]byte{2, 5, 0, 0, 0, 1, 0, 0, 0, 0, 4, 2, 5, 7})
	// Steady pipeline: schedule one at a fixed delay and step, long enough
	// to compact the run's consumed prefix.
	var pipe []byte
	for i := 0; i < 64; i++ {
		pipe = append(pipe, 0, 2, 5)
	}
	f.Add(append([]byte{2, 3, 0, 2, 3, 0, 2, 3, 0}, pipe...))
	// Rising and earlier timers interleaved, cancels, Reset mid-stream.
	f.Add([]byte{1, 3, 0, 2, 1, 6, 1, 2, 2, 0, 3, 1, 3, 4, 9, 6, 0, 0, 2, 0, 3, 5, 5, 7})
	// A cohort at 1 halted by its first event, a zero-delay event from
	// outside (into the lane) and one at 2 (queued), Steps through the
	// remainder and the lane and on into the queue, then a drain.
	f.Add([]byte{2, 1, 1, 0, 0, 2, 3, 0, 7, 2, 0, 0, 1, 1, 0, 5, 5, 5, 7})
	// Zero-delay children of zero-delay children (action 34 = 2 | 2<<4)
	// beside a child one second out (action 6), inside a cohort under Run
	// and again under Step.
	f.Add([]byte{2, 1, 34, 0, 6, 0, 0, 2, 2, 0, 7, 2, 1, 34, 2, 2, 0, 5, 5, 5, 5, 7})
	// Reset while the lane holds an event, then events at 0 and at the
	// dropped cohort's time.
	f.Add([]byte{2, 3, 1, 0, 0, 0, 0, 7, 2, 0, 0, 6, 2, 0, 0, 2, 3, 0, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := &tapeBytes{b: ops}
		e := NewEngine()
		ref := &refEngine{}
		var got, want []firing
		var evs []Event
		var refs []*refEvent
		var delay Time

		// handler and refHandler build event id's callback with action a
		// on each engine; both sides take the same decisions.
		var handler, refHandler func(id, a int) func()
		handler = func(id, a int) func() {
			return func() {
				got = append(got, firing{e.Now(), id})
				switch a % 4 {
				case 1:
					e.Halt()
				case 2:
					e.At(e.Now()+Time((a>>2)%4), handler(id+1<<20, a>>4))
				case 3:
					evs[(a>>2)%len(evs)].Cancel()
				}
			}
		}
		refHandler = func(id, a int) func() {
			return func() {
				want = append(want, firing{ref.now, id})
				switch a % 4 {
				case 1:
					ref.halted = true
				case 2:
					ref.at(ref.now+Time((a>>2)%4), refHandler(id+1<<20, a>>4))
				case 3:
					refs[(a>>2)%len(refs)].cancel = true
				}
			}
		}
		schedule := func(t Time, action int) {
			id := len(evs)
			evs = append(evs, e.At(t, handler(id, action)))
			refs = append(refs, ref.at(t, refHandler(id, action)))
		}

		for op := 0; r.more(); op++ {
			switch code := r.next() % 8; code {
			case 0, 1, 2:
				switch code {
				case 1:
					delay += Time(r.next() % 4)
				case 2:
					delay = Time(r.next() % 8)
				}
				schedule(e.Now()+delay, r.next())
			case 3:
				if len(evs) > 0 {
					i := r.next() % len(evs)
					evs[i].Cancel()
					refs[i].cancel = true
				}
			case 4:
				deadline := e.Now() + Time(r.next()%10)
				e.RunUntil(deadline)
				ref.runUntil(deadline)
			case 5:
				if a, b := e.Step(), ref.step(); a != b {
					t.Fatalf("op %d: Step = %v, reference %v", op, a, b)
				}
			case 6:
				e.Reset()
				ref.reset()
			case 7:
				e.Run()
				ref.runUntil(Never)
			}
			if len(got) != len(want) {
				t.Fatalf("op %d: fired %v, reference %v", op, got, want)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("op %d: firing %d = %+v, reference %+v", op, j, got[j], want[j])
				}
			}
			if e.Now() != ref.now || e.Fired() != ref.fired || e.Pending() != len(ref.queue) {
				t.Fatalf("op %d: now/fired/pending = %v/%d/%d, reference %v/%d/%d",
					op, e.Now(), e.Fired(), e.Pending(), ref.now, ref.fired, len(ref.queue))
			}
			for j, ev := range evs {
				if ev.Pending() != refs[j].pending() {
					t.Fatalf("op %d: event %d Pending = %v, reference %v", op, j, ev.Pending(), refs[j].pending())
				}
			}
			if err := laneFault(e); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	})
}

// laneFault reports a broken zero-delay lane: while it is open, the clock
// stands at the cohort's time, every unfired batch entry is due then, and
// the queue holds only later events. Appending an event due at that time
// to the batch then keeps the (at, seq) firing order.
func laneFault(e *Engine) error {
	if !e.cohort {
		return nil
	}
	if e.now != e.cohortAt {
		return fmt.Errorf("lane open for %v with the clock at %v", e.cohortAt, e.now)
	}
	for _, ev := range e.batch[e.batchNext:] {
		if ev.at != e.cohortAt {
			return fmt.Errorf("lane open for %v holds an event due at %v", e.cohortAt, ev.at)
		}
	}
	if e.queue.len() > 0 && e.queue.min().at <= e.cohortAt {
		return fmt.Errorf("lane open for %v with an event due at %v queued", e.cohortAt, e.queue.min().at)
	}
	return nil
}

// tapeBytes hands out input bytes, then zeros once they run out.
type tapeBytes struct {
	b []byte
	n int
}

func (r *tapeBytes) more() bool { return r.n < len(r.b) }

func (r *tapeBytes) next() int {
	if r.n >= len(r.b) {
		return 0
	}
	r.n++
	return int(r.b[r.n-1])
}
