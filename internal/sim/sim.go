// Package sim provides a deterministic discrete-event simulation kernel.
//
// All substrates in this repository (clusters, resource managers, cloud
// services, pipelines) advance a shared virtual clock by scheduling events on
// an Engine. Determinism is guaranteed by a strict ordering of events:
// primarily by virtual time, secondarily by a monotonically increasing
// sequence number assigned at scheduling time. Simulating hours of virtual
// time over thousands of nodes therefore takes milliseconds of wall time and
// produces bit-identical results across runs.
//
// The event core is the hottest path in the repository: every task start,
// task end, fault, retry timer, and sample tick is one Event. Four
// structural choices keep it fast without weakening the ordering contract:
//
//   - the pending queue is a typed 4-ary min-heap on (time, seq) — no
//     interface boxing, no per-comparison dynamic dispatch, and no heap-index
//     bookkeeping (Cancel only sets a flag; cancelled events are discarded
//     when popped, exactly as before);
//   - beside the heap sits a sorted run of in-order timers: an event due at
//     or after the run's last entry is appended to it in O(1), and a pop
//     takes the smaller of the run's head and the heap's top under the same
//     (time, seq) order, so a wave of task ends scheduled for one time never
//     sifts through the heap and the firing order is unchanged;
//   - event records come from slabs of eventSlabSize and are recycled: a
//     record goes back on a LIFO free list when its event fires or is
//     discarded, and Reset returns every queued record the same way, so a
//     warm engine schedules without allocating. Callers hold a value handle,
//     Event, pairing the record with its generation; recycling a record
//     bumps the generation, so Cancel and Pending on a handle whose event
//     has fired, been discarded or been reset do nothing — a stale handle
//     can never cancel the event that now reuses its record;
//   - Run/RunUntil pop all events sharing the head timestamp as one batch,
//     firing them FIFO by seq; events scheduled during the batch carry larger
//     sequence numbers and therefore sort after it, so the observable order
//     is identical to pop-one-at-a-time. The batch doubles as a lane for
//     zero-delay events: once the cohort of time T is popped, the queue
//     holds only later events, so an event scheduled for T while the cohort
//     is still unfired sorts after every batch entry and before everything
//     queued. At appends it to the batch, skipping the queue's push and pop;
//     the dispatch passes the resource managers coalesce per timestamp with
//     After(0) take this lane.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in seconds from the start of the
// simulation. Using float64 seconds (rather than time.Duration) matches the
// granularity the paper reports (seconds to hours) and keeps arithmetic on
// rates and utilization integrals simple.
type Time float64

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Never is a sentinel meaning "no scheduled time".
const Never = Time(math.MaxFloat64)

// eventSlabSize is how many event records one allocation hands out.
// Amortizing the allocation is the whole point; the value only trades
// retained-slab granularity against allocation frequency.
const eventSlabSize = 256

// Event is a handle to a callback scheduled with At or After. It is a
// value: copy it freely. It refers to its engine-owned record only while
// that record's generation matches, that is until the event fires, is
// discarded after Cancel, or is dropped by Reset. The zero Event refers to
// nothing.
type Event struct {
	rec *event
	gen uint64
}

// Cancel keeps the event from firing. It does nothing once the event has
// fired, been discarded or been dropped by Reset, and on the zero Event.
func (h Event) Cancel() {
	if h.rec != nil && h.rec.gen == h.gen {
		h.rec.cancel = true
	}
}

// Pending reports whether the event is still queued to fire: scheduled,
// not yet fired and not cancelled.
func (h Event) Pending() bool {
	return h.rec != nil && h.rec.gen == h.gen && !h.rec.cancel
}

// event is one engine-owned record of a scheduled callback. gen counts the
// record's recycles; a handle matches only the use it was issued for.
type event struct {
	at     Time
	fn     func()
	next   *event // the next free record, while this one is free
	gen    uint64
	cancel bool
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	queue  queue
	fired  uint64
	halted bool

	// batch holds the events popped together for one timestamp; batchNext is
	// the first not-yet-fired index. A halted or deadline-bounded RunUntil
	// may leave a remainder here, which the next Run/RunUntil/Step drains
	// before touching the queue.
	batch     []*event
	batchNext int
	// cohort is set while batch holds the cohort of time cohortAt that
	// RunUntil popped; At appends events due at cohortAt to it. It is
	// cleared when the batch drains, under RunUntil or under Step before it
	// pops from the queue, and by Reset.
	cohort   bool
	cohortAt Time

	// free heads the list of recycled records, linked through next and
	// reused last in first out; slab is the tail of the current record
	// slab, which alloc draws from when free is empty and replaces when
	// exhausted.
	free *event
	slab []event
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to its just-constructed state (clock at zero, no
// history, nothing pending) while retaining allocated capacity: the queue's
// run and heap backing arrays, the batch buffer and the event records, every
// queued one of which goes back on the free list. Recycling bumps each
// record's generation, so handles issued before Reset stop matching. The
// warm contract is exact: an event population scheduled after Reset receives
// the same seqs, pops in the same order, and fires at the same times as on a
// fresh engine.
func (e *Engine) Reset() {
	e.now, e.seq, e.fired, e.halted = 0, 0, 0, false
	e.cohort, e.cohortAt = false, 0
	for _, ev := range e.batch[e.batchNext:] {
		e.recycle(ev)
	}
	for _, x := range e.queue.run[e.queue.head:] {
		e.recycle(x.ev)
	}
	for _, x := range e.queue.heap {
		e.recycle(x.ev)
	}
	clear(e.batch)
	e.batch = e.batch[:0]
	e.batchNext = 0
	e.queue.reset()
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events that have executed.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued (including cancelled
// events that have not yet been discarded).
func (e *Engine) Pending() int { return e.queue.len() + len(e.batch) - e.batchNext }

// alloc returns a record for a new event: the most recently recycled one,
// or the next of the current slab.
func (e *Engine) alloc() *event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		return ev
	}
	if len(e.slab) == 0 {
		e.slab = make([]event, eventSlabSize)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	return ev
}

// recycle puts a fired, discarded or dropped record on the free list. The
// generation bump detaches every handle issued for its last use.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.cancel = nil, false
	ev.next, e.free = e.free, ev
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past,
// or at NaN, panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) Event {
	if !(t >= e.now) { // also catches NaN, which would break the (at, seq) order
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.fn = t, fn
	if e.cohort && t == e.cohortAt {
		e.batch = append(e.batch, ev)
	} else {
		e.queue.push(entry{at: t, seq: e.seq, ev: ev})
	}
	return Event{rec: ev, gen: ev.gen}
}

// After schedules fn to run d seconds of virtual time from now. Negative
// delays are clamped to zero.
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Halt stops the current Run/RunUntil after the in-flight event completes.
func (e *Engine) Halt() { e.halted = true }

// Run executes events until the queue drains or Halt is called. It returns
// the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Never) }

// RunUntil executes events with timestamps <= deadline, advancing the clock.
// Events scheduled beyond the deadline stay queued; the clock is left at
// min(deadline, time of last fired event) — it never exceeds the deadline.
func (e *Engine) RunUntil(deadline Time) Time {
	e.halted = false
	for !e.halted {
		if e.batchNext < len(e.batch) {
			ev := e.batch[e.batchNext]
			if ev.at > deadline {
				// Only possible when a halted batch is resumed with an
				// earlier deadline; the remainder stays for a later run.
				break
			}
			e.batch[e.batchNext] = nil
			e.batchNext++
			if fn, ok := e.take(ev); ok {
				e.fired++
				fn()
			}
			continue
		}
		e.batch = e.batch[:0]
		e.batchNext = 0
		e.cohort = false
		if e.queue.len() == 0 {
			break
		}
		head := e.queue.min()
		if head.at > deadline {
			break
		}
		// Pop the whole timestamp cohort at once. Successive pops yield
		// ascending seq, so the batch is already in FIFO firing order;
		// events scheduled while it fires get larger seqs and sort after,
		// those due at its time straight onto the batch (see At).
		e.batch = e.queue.appendCohort(e.batch, head.at)
		e.cohort, e.cohortAt = true, head.at
	}
	if deadline != Never && e.now < deadline && !e.halted {
		e.now = deadline
	}
	return e.now
}

// Step fires exactly one non-cancelled event, if any, and reports whether one
// fired. It drains any batch remainder left by a halted RunUntil first and
// closes the zero-delay lane before it pops from the queue, so events
// scheduled under that pop go through the queue.
func (e *Engine) Step() bool {
	for {
		var ev *event
		if e.batchNext < len(e.batch) {
			ev = e.batch[e.batchNext]
			e.batch[e.batchNext] = nil
			e.batchNext++
		} else {
			if len(e.batch) > 0 {
				e.batch = e.batch[:0]
				e.batchNext = 0
				e.cohort = false
			}
			if e.queue.len() == 0 {
				return false
			}
			ev = e.queue.pop().ev
		}
		if fn, ok := e.take(ev); ok {
			e.fired++
			fn()
			return true
		}
	}
}

// take recycles a popped record and, unless it was cancelled, moves the
// clock to its time and returns its callback with ok set. The record is free
// before the callback runs, so the callback may reuse it, and its own handle
// already reads as fired.
func (e *Engine) take(ev *event) (fn func(), ok bool) {
	fn, ok = ev.fn, !ev.cancel
	if ok {
		e.now = ev.at
	}
	e.recycle(ev)
	return fn, ok
}
