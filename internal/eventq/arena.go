package eventq

// ArenaQueue is the allocation-free event queue: events live in a flat slot
// arena addressed by index rather than in per-event heap allocations, and
// popped or removed slots are recycled through a freelist. In steady state
// — once the arena and heap have grown to the high-water mark of a run —
// Push, Pop and Remove perform zero heap allocations, which removes the
// dominant GC pressure of the simulation kernel's hot loop.
//
// Push orders events by (time, insertion order), so runs driven by an
// ArenaQueue are deterministic; SliceQueue, the O(n) reference, orders
// identically.
//
// Events are identified by Handle, an index plus a generation stamp. A slot's
// generation is bumped every time the slot is released, so a stale Handle
// (kept after its event fired or was removed, even if the slot has since been
// recycled for a different event) can never alias a live one.
type ArenaQueue[T any] struct {
	slots []arenaSlot[T]
	heap  []heapEntry // ordering keys + slot index, contiguous for locality
	free  []int32     // recycled slot indices
	seq   uint64

	pushed  uint64
	popped  uint64
	removed uint64
}

// heapEntry carries the full ordering key inline so sift comparisons touch
// only the contiguous heap array, never the slot arena.
type heapEntry struct {
	time float64
	seq  uint64
	idx  int32 // slot index
}

type arenaSlot[T any] struct {
	payload T
	gen     uint32
	pos     int32 // position in heap; -1 while the slot is free
}

// Handle identifies one scheduled event in an ArenaQueue. The zero Handle is
// never valid and is used as the "no pending event" sentinel.
type Handle struct {
	idx int32
	gen uint32
}

// NoHandle is the invalid zero Handle.
var NoHandle Handle

// NewArena returns an empty arena queue.
func NewArena[T any]() *ArenaQueue[T] {
	return &ArenaQueue[T]{}
}

// Len returns the number of pending events.
func (q *ArenaQueue[T]) Len() int { return len(q.heap) }

// Cap returns the arena's slot capacity (its high-water mark of pending
// events).
func (q *ArenaQueue[T]) Cap() int { return len(q.slots) }

// Stats returns lifetime counters: events pushed, popped and removed.
func (q *ArenaQueue[T]) Stats() (pushed, popped, removed uint64) {
	return q.pushed, q.popped, q.removed
}

// Reset empties the queue and zeroes its counters while retaining all slot
// and heap capacity. Every outstanding Handle is invalidated.
//
//halotis:noalloc
func (q *ArenaQueue[T]) Reset() {
	q.free = q.free[:0]
	for i := range q.slots {
		s := &q.slots[i]
		if s.pos >= 0 {
			s.pos = -1
			s.gen++
		}
		var zero T
		s.payload = zero
		q.free = append(q.free, int32(i))
	}
	q.heap = q.heap[:0]
	q.seq = 0
	q.pushed, q.popped, q.removed = 0, 0, 0
}

// Push schedules an event at time t and returns its handle.
//
//halotis:noalloc
func (q *ArenaQueue[T]) Push(t float64, payload T) Handle {
	q.seq++
	q.pushed++
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		idx = int32(len(q.slots))
		q.slots = append(q.slots, arenaSlot[T]{gen: 1})
	}
	s := &q.slots[idx]
	s.payload = payload
	s.pos = int32(len(q.heap))
	q.heap = append(q.heap, heapEntry{time: t, seq: q.seq, idx: idx})
	q.up(int(s.pos))
	return Handle{idx: idx, gen: s.gen}
}

// PushKeyed schedules an event at time t with an explicit tie-break key in
// place of the insertion sequence: two entries at the same time pop in
// ascending key order. Callers supplying a structural key (the simulation
// kernel uses the global pin id) get a pop order that is a property of the
// scheduled set alone, independent of the order pushes happened to arrive in
// — which is what lets several queues on different goroutines reproduce one
// global order. Mixing Push and PushKeyed in one queue leaves same-time ties
// between the two kinds unspecified; use one or the other per run.
//
//halotis:noalloc
func (q *ArenaQueue[T]) PushKeyed(t float64, key uint64, payload T) Handle {
	q.pushed++
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		idx = int32(len(q.slots))
		q.slots = append(q.slots, arenaSlot[T]{gen: 1})
	}
	s := &q.slots[idx]
	s.payload = payload
	s.pos = int32(len(q.heap))
	q.heap = append(q.heap, heapEntry{time: t, seq: key, idx: idx})
	q.up(int(s.pos))
	return Handle{idx: idx, gen: s.gen}
}

// lookup resolves a handle to its live slot, or nil.
func (q *ArenaQueue[T]) lookup(h Handle) *arenaSlot[T] {
	if h.gen == 0 || int(h.idx) >= len(q.slots) {
		return nil
	}
	s := &q.slots[h.idx]
	if s.gen != h.gen || s.pos < 0 {
		return nil
	}
	return s
}

// Pending reports whether the handle's event is still in the queue.
func (q *ArenaQueue[T]) Pending(h Handle) bool { return q.lookup(h) != nil }

// TimeOf returns the scheduled time of a pending event; ok is false if the
// handle is stale.
func (q *ArenaQueue[T]) TimeOf(h Handle) (t float64, ok bool) {
	s := q.lookup(h)
	if s == nil {
		return 0, false
	}
	return q.heap[s.pos].time, true
}

// PeekTime returns the earliest pending event time without removing it.
func (q *ArenaQueue[T]) PeekTime() (t float64, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].time, true
}

// PeekKey returns the earliest pending event's full ordering key — its time
// and its tie-break key (the insertion sequence for Push entries, the caller
// key for PushKeyed entries) — without removing it.
func (q *ArenaQueue[T]) PeekKey() (t float64, key uint64, ok bool) {
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	return q.heap[0].time, q.heap[0].seq, true
}

// Pop removes the earliest pending event and returns its handle, time and
// payload by value. The returned handle is already stale — Pending on it is
// false — but it still equals (as a value) the handle Push returned for this
// event, so callers can use it as an identity token to reconcile their own
// bookkeeping ("was this the event I had recorded for that pin?").
//
//halotis:noalloc
func (q *ArenaQueue[T]) Pop() (h Handle, t float64, payload T, ok bool) {
	if len(q.heap) == 0 {
		var zero T
		return Handle{}, 0, zero, false
	}
	top := q.heap[0]
	s := &q.slots[top.idx]
	h = Handle{idx: top.idx, gen: s.gen}
	t, payload = top.time, s.payload
	q.deleteAt(0)
	q.popped++
	return h, t, payload, true
}

// Remove deletes a pending event. It returns false (and does nothing) if the
// event already fired or was removed.
//
//halotis:noalloc
func (q *ArenaQueue[T]) Remove(h Handle) bool {
	s := q.lookup(h)
	if s == nil {
		return false
	}
	q.deleteAt(int(s.pos))
	q.removed++
	return true
}

// deleteAt removes the heap entry at position i, releasing its slot to the
// freelist and restoring the heap invariant.
func (q *ArenaQueue[T]) deleteAt(i int) {
	idx := q.heap[i].idx
	last := len(q.heap) - 1
	q.swap(i, last)
	q.heap = q.heap[:last]
	if i < last {
		if !q.down(i) {
			q.up(i)
		}
	}
	s := &q.slots[idx]
	s.pos = -1
	s.gen++
	var zero T
	s.payload = zero
	q.free = append(q.free, idx)
}

// less orders heap entries by time, then insertion order.
func (q *ArenaQueue[T]) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *ArenaQueue[T]) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.slots[q.heap[i].idx].pos = int32(i)
	q.slots[q.heap[j].idx].pos = int32(j)
}

func (q *ArenaQueue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// down sifts the entry at i toward the leaves; it reports whether it moved.
func (q *ArenaQueue[T]) down(i int) bool {
	start := i
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q.swap(i, child)
		i = child
	}
	return i != start
}
