package eventq

import (
	"math"
	"math/bits"
)

// ArenaQueue is the allocation-free event queue: a monotone radix queue
// over a flat slot arena. Events live in slots addressed by index rather
// than in per-event heap allocations, and released slots are recycled
// through a freelist. In steady state — once the arena and the buckets have
// grown to the high-water mark of a run — Push, Pop and Remove perform zero
// heap allocations, which removes the dominant GC pressure of the
// simulation kernel's hot loop.
//
// Pending entries are filed by their radix key (the order-preserving bits
// of their time, see radixKey) relative to last, the key of the minimum
// the queue last settled on: bucket b >= 1 holds, unordered, the entries
// whose key first differs from last at bit b-1, and bucket 0 the entries
// at exactly last's time, as a binary min-heap on their tie-break key.
// Push appends to a bucket in O(1). Pop and PeekKey settle the minimum:
// when bucket 0 is empty they move last up to the smallest key of the
// lowest non-empty bucket and refile that bucket's entries below it. So
// last is the head PeekKey last reported, which can lie above the last
// pop. Pop then takes bucket 0's top. Buckets hold 4-byte slot indices
// and keep their capacity across Reset.
//
// That is the monotone fast path, taken while every push lies at or after
// last; an entry then moves down at most 64 times over its life. A push
// below last stays correct: it lowers last to the new key, which
// re-buckets the entries filed below the highest bit where the two keys
// differ, and the next refile scans them again. The simulation kernel
// keeps to the fast path: a lane pushes the crossings its events schedule
// after the pop that fired them, and they lie after its clock. Only a
// partitioned lane's inbox crossings, pushed after the lane has peeked
// its head against the horizon, can lie below that head. Measured, that
// happens at most about once per run across the circuit families at one,
// two and four partitions, and never on the 100k-gate random DAG at two.
//
// Remove is O(1): it marks the slot removed and leaves its index where it
// sits. The slot returns to the freelist only when the queue reaches it —
// at the top of bucket 0, when its bucket is refiled, or once no live
// entry remains — so no bucket ever names a recycled slot. The arena
// therefore holds at most the pending entries plus the removed ones the
// minimum has not yet reached.
//
// Entries are ordered by (time, tie-break key) with times compared as
// float64 < (-0 ties with +0; NaN times are not supported). Push breaks
// ties by insertion order, so runs driven by an ArenaQueue are
// deterministic; SliceQueue, the O(n) reference, orders identically.
//
// Events are identified by Handle, an index plus a generation stamp. A slot's
// generation is bumped every time the slot is released, so a stale Handle
// (kept after its event fired or was removed, even if the slot has since been
// recycled for a different event) can never alias a live one.
type ArenaQueue[T any] struct {
	slots   []arenaSlot[T]
	buckets [numBuckets][]int32 // slot indices; see the type doc
	full    uint64              // bit b-1 set when bucket b >= 1 is non-empty
	free    []int32             // released slot indices
	last    uint64              // radix key of the minimum last settled on
	live    int                 // pending entries
	seq     uint64

	pushed  uint64
	popped  uint64
	removed uint64
}

// numBuckets is one bucket per bit of a radix key, plus bucket 0.
const numBuckets = 65

type arenaSlot[T any] struct {
	payload T
	time    float64
	tie     uint64 // insertion sequence (Push) or caller key (PushKeyed)
	gen     uint32
	state   slotState
}

type slotState uint8

const (
	slotFree    slotState = iota // on the freelist
	slotLive                     // pending
	slotRemoved                  // removed, its index still in a bucket
)

// radixKey maps a time to a key whose unsigned order is float64 < order:
// positive times get the sign bit set, negative ones every bit flipped, and
// -0 maps to +0's key so the two tie as they do under <.
//
//halotis:noalloc
func radixKey(t float64) uint64 {
	b := math.Float64bits(t)
	if b == 1<<63 {
		b = 0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
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
func (q *ArenaQueue[T]) Len() int { return q.live }

// Cap returns the arena's slot capacity: its high-water mark of pending
// events plus removed ones not yet recycled.
func (q *ArenaQueue[T]) Cap() int { return len(q.slots) }

// Stats returns lifetime counters: events pushed, popped and removed.
func (q *ArenaQueue[T]) Stats() (pushed, popped, removed uint64) {
	return q.pushed, q.popped, q.removed
}

// Reset empties the queue and zeroes its counters while retaining all slot
// and bucket capacity. Every outstanding Handle is invalidated.
//
//halotis:noalloc
func (q *ArenaQueue[T]) Reset() {
	q.free = q.free[:0]
	for i := range q.slots {
		s := &q.slots[i]
		if s.state != slotFree {
			s.state = slotFree
			s.gen++
		}
		var zero T
		s.payload = zero
		q.free = append(q.free, int32(i))
	}
	for b := range q.buckets {
		q.buckets[b] = q.buckets[b][:0]
	}
	q.full, q.last = 0, 0
	q.live = 0
	q.seq = 0
	q.pushed, q.popped, q.removed = 0, 0, 0
}

// Push schedules an event at time t and returns its handle.
//
//halotis:noalloc
func (q *ArenaQueue[T]) Push(t float64, payload T) Handle {
	q.seq++
	return q.push(t, q.seq, payload)
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
	return q.push(t, key, payload)
}

// push fills a slot and files it under its key, lowering last first when
// the key lies below it.
//
//halotis:noalloc
func (q *ArenaQueue[T]) push(t float64, tie uint64, payload T) Handle {
	q.pushed++
	q.live++
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		idx = int32(len(q.slots))
		q.slots = append(q.slots, arenaSlot[T]{gen: 1})
	}
	s := &q.slots[idx]
	s.payload, s.time, s.tie, s.state = payload, t, tie, slotLive
	k := radixKey(t)
	if k < q.last {
		q.rebucket(k)
	}
	q.place(idx, k)
	return Handle{idx: idx, gen: s.gen}
}

// place files slot idx, whose key k is at or above last, into its bucket.
//
//halotis:noalloc
func (q *ArenaQueue[T]) place(idx int32, k uint64) {
	b := bits.Len64(k ^ q.last)
	if b == 0 {
		q.tiePush(idx)
		return
	}
	q.buckets[b] = append(q.buckets[b], idx)
	q.full |= 1 << (b - 1)
}

// rebucket lowers last to k, which lies below it. With h the bucket k
// would have had, every filed key agrees with last above bit h-1, where
// last has a 1 and k a 0: the entries of buckets 0 to h-1 now first differ
// from k at bit h-1 and all move to bucket h, which was empty (its keys
// would lie below last); the entries of higher buckets keep theirs.
//
//halotis:noalloc
func (q *ArenaQueue[T]) rebucket(k uint64) {
	h := bits.Len64(k ^ q.last)
	dst := q.buckets[h]
	for b := 0; b < h; b++ {
		dst = append(dst, q.buckets[b]...)
		q.buckets[b] = q.buckets[b][:0]
	}
	q.buckets[h] = dst
	q.full &^= 1<<(h-1) - 1
	if len(dst) > 0 {
		q.full |= 1 << (h - 1)
	}
	q.last = k
}

// settle brings the earliest live entry to the top of bucket 0 and reports
// whether there is one. It recycles the removed entries it meets on the
// way, and once no live entry remains, every removed one still filed.
//
//halotis:noalloc
func (q *ArenaQueue[T]) settle() bool {
	if q.live == 0 {
		if q.full != 0 || len(q.buckets[0]) > 0 {
			q.drain()
		}
		return false
	}
	for {
		if h := q.buckets[0]; len(h) > 0 {
			if q.slots[h[0]].state == slotLive {
				return true
			}
			q.release(q.tiePop())
			continue
		}
		q.advance()
	}
}

// advance refiles the lowest non-empty bucket above 0: last moves up to the
// smallest live key there, and the bucket's live entries are filed again
// relative to it — those at the new last into bucket 0 — while its removed
// ones are recycled. Bucket b's keys agree with last above bit b-1, so
// relative to any of them the entries land strictly below b. Only called
// with bucket 0 empty and a live entry filed.
//
//halotis:noalloc
func (q *ArenaQueue[T]) advance() {
	b := bits.TrailingZeros64(q.full) + 1
	src := q.buckets[b]
	q.buckets[b] = src[:0]
	q.full &^= 1 << (b - 1)
	found := false
	var m uint64
	for _, idx := range src {
		if s := &q.slots[idx]; s.state == slotLive {
			if k := radixKey(s.time); !found || k < m {
				m, found = k, true
			}
		}
	}
	if found {
		q.last = m
	}
	for _, idx := range src {
		if s := &q.slots[idx]; s.state == slotLive {
			q.place(idx, radixKey(s.time))
		} else {
			q.release(idx)
		}
	}
}

// drain recycles every filed entry; only called when all of them are
// removed ones.
//
//halotis:noalloc
func (q *ArenaQueue[T]) drain() {
	for b := range q.buckets {
		for _, idx := range q.buckets[b] {
			q.release(idx)
		}
		q.buckets[b] = q.buckets[b][:0]
	}
	q.full = 0
}

// release returns a slot to the freelist, bumping its generation so every
// handle to it goes stale.
//
//halotis:noalloc
func (q *ArenaQueue[T]) release(idx int32) {
	s := &q.slots[idx]
	s.state = slotFree
	s.gen++
	var zero T
	s.payload = zero
	q.free = append(q.free, idx)
}

// tiePush adds slot idx to bucket 0's heap, which orders entries at
// last's time by their tie-break key.
//
//halotis:noalloc
func (q *ArenaQueue[T]) tiePush(idx int32) {
	h := append(q.buckets[0], idx)
	tie := q.slots[idx].tie
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.slots[h[p]].tie <= tie {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = idx
	q.buckets[0] = h
}

// tiePop removes and returns the top of bucket 0's heap, which must not be
// empty.
//
//halotis:noalloc
func (q *ArenaQueue[T]) tiePop() int32 {
	h := q.buckets[0]
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	q.buckets[0] = h
	if n == 0 {
		return top
	}
	tie := q.slots[x].tie
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.slots[h[r]].tie < q.slots[h[c]].tie {
			c = r
		}
		if tie <= q.slots[h[c]].tie {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
	return top
}

// lookup resolves a handle to its live slot, or nil.
func (q *ArenaQueue[T]) lookup(h Handle) *arenaSlot[T] {
	if h.gen == 0 || int(h.idx) >= len(q.slots) {
		return nil
	}
	s := &q.slots[h.idx]
	if s.gen != h.gen || s.state != slotLive {
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
	return s.time, true
}

// PeekTime returns the earliest pending event time without removing it.
//
//halotis:noalloc
func (q *ArenaQueue[T]) PeekTime() (t float64, ok bool) {
	t, _, ok = q.PeekKey()
	return t, ok
}

// PeekKey returns the earliest pending event's full ordering key — its time
// and its tie-break key (the insertion sequence for Push entries, the caller
// key for PushKeyed entries) — without removing it.
//
//halotis:noalloc
func (q *ArenaQueue[T]) PeekKey() (t float64, key uint64, ok bool) {
	if !q.settle() {
		return 0, 0, false
	}
	s := &q.slots[q.buckets[0][0]]
	return s.time, s.tie, true
}

// Pop removes the earliest pending event and returns its handle, time and
// payload by value. The returned handle is already stale — Pending on it is
// false — but it still equals (as a value) the handle Push returned for this
// event, so callers can use it as an identity token to reconcile their own
// bookkeeping ("was this the event I had recorded for that pin?").
//
//halotis:noalloc
func (q *ArenaQueue[T]) Pop() (h Handle, t float64, payload T, ok bool) {
	if !q.settle() {
		var zero T
		return Handle{}, 0, zero, false
	}
	idx := q.tiePop()
	s := &q.slots[idx]
	h = Handle{idx: idx, gen: s.gen}
	t, payload = s.time, s.payload
	q.live--
	q.popped++
	q.release(idx)
	return h, t, payload, true
}

// Remove deletes a pending event in O(1): its slot is marked removed and
// recycled once the queue reaches it. It returns false (and does nothing)
// if the event already fired or was removed.
//
//halotis:noalloc
func (q *ArenaQueue[T]) Remove(h Handle) bool {
	s := q.lookup(h)
	if s == nil {
		return false
	}
	s.state = slotRemoved
	q.live--
	q.removed++
	return true
}
