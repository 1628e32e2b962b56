package sim

// entry is one queued event with its ordering key inlined. Keeping (at, seq)
// next to the pointer means every heap comparison reads memory that is
// already in the cache line being swapped, instead of chasing the record,
// which does not repeat them.
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

func (e entry) less(o entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// queue holds the pending events ordered by (at, seq) in two parts:
//
//   - run is a sorted run of in-order timers. An entry whose time is at or
//     after the run's last entry is appended to it; seq only grows, so the
//     run stays sorted by (at, seq) without any comparison beyond that one.
//     A wave of timers scheduled for one future time — every task end of a
//     dispatch round — pushes and pops in O(1) each.
//   - heap is a 4-ary min-heap taking every other entry. It is monomorphic
//     (no `any` boxing, no interface dispatch per comparison) and
//     index-free: Cancel never removes an event from the queue — cancelled
//     events are discarded at pop — so there is no heap-position
//     bookkeeping at all. The wider fan-out roughly halves tree depth,
//     trading a few extra comparisons per level (cheap, cache-resident) for
//     fewer cache-missing levels on deep queues.
//
// A pop takes the smaller of the run's head and the heap's top under
// entry.less, so the merged order is exactly the single-heap order. run[:head]
// is the consumed prefix; it is reclaimed when the run drains, or compacted
// when an append would otherwise grow a slice that is at least half consumed,
// so appends stay amortized O(1) and never copy the live entries per push.
type queue struct {
	run  []entry
	head int
	heap []entry
}

func (q *queue) len() int { return len(q.run) - q.head + len(q.heap) }

// reset empties the queue in place, zeroing entries so record references are
// dropped but keeping both backing arrays for reuse.
func (q *queue) reset() {
	clear(q.run)
	q.run = q.run[:0]
	q.head = 0
	clear(q.heap)
	q.heap = q.heap[:0]
}

// runFirst reports whether the run's head is the queue's minimum; it is
// false whenever the run is empty, which costs one predictable branch.
func (q *queue) runFirst() bool {
	return q.head < len(q.run) && (len(q.heap) == 0 || q.run[q.head].less(q.heap[0]))
}

// min returns the smallest entry without removing it. Callers must check
// len() > 0 first.
func (q *queue) min() entry {
	if q.runFirst() {
		return q.run[q.head]
	}
	return q.heap[0]
}

func (q *queue) push(x entry) {
	if n := len(q.run); n == q.head || !x.less(q.run[n-1]) {
		if n == cap(q.run) && q.head > 0 && q.head >= n/2 {
			live := copy(q.run, q.run[q.head:])
			q.run = q.run[:live]
			q.head = 0
		}
		q.run = append(q.run, x)
		return
	}
	a := append(q.heap, x)
	q.heap = a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !a[i].less(a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (q *queue) pop() entry {
	if q.runFirst() {
		return q.popRun()
	}
	return q.popHeap()
}

// popRun removes the run's head. Once the run drains, its slice restarts at
// zero, so a run that keeps draining never needs compacting.
func (q *queue) popRun() entry {
	x := q.run[q.head]
	q.head++
	if q.head == len(q.run) {
		q.run = q.run[:0]
		q.head = 0
	}
	return x
}

func (q *queue) popHeap() entry {
	a := q.heap
	top := a[0]
	n := len(a) - 1
	x := a[n]
	q.heap = a[:n]
	if n > 0 {
		q.siftDown(x)
	}
	return top
}

// siftDown re-inserts x starting from the heap's root, moving the smallest
// child up into the hole instead of swapping — one store per level rather
// than three.
func (q *queue) siftDown(x entry) {
	a := q.heap
	n := len(a)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if a[j].less(a[m]) {
				m = j
			}
		}
		if !a[m].less(x) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = x
}

// appendCohort pops every entry due at time at, in (at, seq) order, onto dst
// and returns it. The caller guarantees min().at == at.
func (q *queue) appendCohort(dst []*event, at Time) []*event {
	for {
		if q.runFirst() {
			if q.run[q.head].at != at {
				return dst
			}
			dst = append(dst, q.popRun().ev)
			continue
		}
		if len(q.heap) == 0 || q.heap[0].at != at {
			return dst
		}
		dst = append(dst, q.popHeap().ev)
	}
}
