package sim

import "testing"

// FuzzEngineMatchesReference replays a tape of engine operations on the real
// Engine and on refEngine and, after every operation, requires the same
// firing sequence, clock, fired count and pending count, and the same
// Pending answer from every handle ever issued: records are recycled, so a
// handle kept past its event's firing, cancel or Reset must keep reading
// false while its record serves later events.
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
// now+(a>>2)%4, 3 cancels the event with index (a>>2)%scheduled.
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
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := &tapeBytes{b: ops}
		e := NewEngine()
		ref := &refEngine{}
		var got, want []firing
		var evs []Event
		var refs []*refEvent
		var delay Time

		// schedule adds event id at t to both engines; the handlers share
		// one action so both sides take the same decisions.
		schedule := func(t Time, action int) {
			id := len(evs)
			evs = append(evs, e.At(t, func() {
				got = append(got, firing{e.Now(), id})
				switch action % 4 {
				case 1:
					e.Halt()
				case 2:
					child := e.Now() + Time((action>>2)%4)
					e.At(child, func() { got = append(got, firing{e.Now(), ^id}) })
				case 3:
					evs[(action>>2)%len(evs)].Cancel()
				}
			}))
			refs = append(refs, ref.at(t, func() {
				want = append(want, firing{ref.now, id})
				switch action % 4 {
				case 1:
					ref.halted = true
				case 2:
					child := ref.now + Time((action>>2)%4)
					ref.at(child, func() { want = append(want, firing{ref.now, ^id}) })
				case 3:
					refs[(action>>2)%len(refs)].cancel = true
				}
			}))
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
		}
	})
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
