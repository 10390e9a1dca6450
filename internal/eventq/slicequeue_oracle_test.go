package eventq

// SliceQueue is a reference implementation of the event queue with O(n)
// operations: a flat slice scanned for the minimum. It exists as the oracle
// of the arena queue's differential tests and fuzz target and as the
// baseline of the queue-structure ablation benchmarks (BenchmarkAblation*
// in slicequeue_test.go): the paper's algorithm needs both pop-min and
// arbitrary deletion, and the radix queue provides pushes and deletions in
// O(1) and pops in amortized O(1) per bit of the time key.
//
// SliceQueue intentionally mirrors ArenaQueue's semantics, including
// tie-breaking by insertion order (Push) or by the caller's key
// (PushKeyed).
type SliceQueue[T any] struct {
	items []*SliceItem[T]
	seq   uint64

	pushed  uint64
	popped  uint64
	removed uint64
}

// SliceItem is one event scheduled in a SliceQueue. It is created by Push
// and remains a valid handle until popped or removed.
type SliceItem[T any] struct {
	// Time is the scheduled firing time in ns.
	Time float64
	// Payload carries the simulator-specific event data.
	Payload T

	seq     uint64 // tie-break key: insertion order (Push) or caller key (PushKeyed)
	pending bool   // still in the queue
}

// NewSlice returns an empty reference queue.
func NewSlice[T any]() *SliceQueue[T] {
	return &SliceQueue[T]{}
}

// Len returns the number of pending events.
func (q *SliceQueue[T]) Len() int { return len(q.items) }

// Stats mirrors ArenaQueue.Stats.
func (q *SliceQueue[T]) Stats() (pushed, popped, removed uint64) {
	return q.pushed, q.popped, q.removed
}

// Push schedules an event and returns its handle.
func (q *SliceQueue[T]) Push(t float64, payload T) *SliceItem[T] {
	q.seq++
	q.pushed++
	it := &SliceItem[T]{Time: t, Payload: payload, seq: q.seq, pending: true}
	q.items = append(q.items, it)
	return it
}

// PushKeyed mirrors ArenaQueue.PushKeyed: key takes the insertion
// sequence's place as the tie-break.
func (q *SliceQueue[T]) PushKeyed(t float64, key uint64, payload T) *SliceItem[T] {
	q.pushed++
	it := &SliceItem[T]{Time: t, Payload: payload, seq: key, pending: true}
	q.items = append(q.items, it)
	return it
}

// Reset mirrors ArenaQueue.Reset: every pending item leaves the queue, and
// the insertion sequence and the counters restart.
func (q *SliceQueue[T]) Reset() {
	for _, it := range q.items {
		it.pending = false
	}
	q.items = q.items[:0]
	q.seq = 0
	q.pushed, q.popped, q.removed = 0, 0, 0
}

// minIndex returns the position of the earliest item, or -1.
func (q *SliceQueue[T]) minIndex() int {
	best := -1
	for i, it := range q.items {
		if best < 0 || it.Time < q.items[best].Time ||
			(it.Time == q.items[best].Time && it.seq < q.items[best].seq) {
			best = i
		}
	}
	return best
}

// Peek returns the earliest pending event without removing it.
func (q *SliceQueue[T]) Peek() *SliceItem[T] {
	i := q.minIndex()
	if i < 0 {
		return nil
	}
	return q.items[i]
}

// Pop removes and returns the earliest pending event.
func (q *SliceQueue[T]) Pop() *SliceItem[T] {
	i := q.minIndex()
	if i < 0 {
		return nil
	}
	it := q.items[i]
	q.items = append(q.items[:i], q.items[i+1:]...)
	it.pending = false
	q.popped++
	return it
}

// Remove deletes a pending event; false if it already left the queue.
func (q *SliceQueue[T]) Remove(it *SliceItem[T]) bool {
	if it == nil || !it.pending {
		return false
	}
	for i, cand := range q.items {
		if cand == it {
			q.items = append(q.items[:i], q.items[i+1:]...)
			it.pending = false
			q.removed++
			return true
		}
	}
	return false
}
