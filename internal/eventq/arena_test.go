package eventq

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// trackedEvent mirrors one logical event across the arena queue and the
// reference slice queue so the differential test can remove "the same"
// event from each.
type trackedEvent struct {
	sliceItem *SliceItem[int]
	handle    Handle
}

// TestArenaDifferential drives the arena queue and the O(n) reference slice
// queue through identical randomized interleavings of Push, Remove and Pop
// (with heavy time ties to stress the seq tie-breaker) and asserts they
// agree on every pop and on their lifetime counters.
func TestArenaDifferential(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		sliceQ := NewSlice[int]()
		arenaQ := NewArena[int]()
		var tracked []*trackedEvent
		payload := 0

		step := func() {
			switch op := rng.Intn(10); {
			case op < 5: // push
				// Coarse times force frequent ties.
				tm := float64(rng.Intn(8))
				payload++
				tracked = append(tracked, &trackedEvent{
					sliceItem: sliceQ.Push(tm, payload),
					handle:    arenaQ.Push(tm, payload),
				})
			case op < 7: // remove a random tracked event (possibly stale)
				if len(tracked) == 0 {
					return
				}
				ev := tracked[rng.Intn(len(tracked))]
				if b, c := sliceQ.Remove(ev.sliceItem), arenaQ.Remove(ev.handle); b != c {
					t.Fatalf("trial %d: Remove disagreement: slice=%v arena=%v", trial, b, c)
				}
			default: // pop
				si := sliceQ.Pop()
				_, at, ap, ok := arenaQ.Pop()
				if (si == nil) != !ok {
					t.Fatalf("trial %d: Pop emptiness disagreement", trial)
				}
				if si != nil && (si.Time != at || si.Payload != ap) {
					t.Fatalf("trial %d: Pop disagreement: slice=(%g,%d) arena=(%g,%d)",
						trial, si.Time, si.Payload, at, ap)
				}
			}
		}

		for i := 0; i < 400; i++ {
			step()
		}
		// Drain: the remaining pop order must match exactly.
		for {
			si := sliceQ.Pop()
			_, at, ap, ok := arenaQ.Pop()
			if si == nil {
				if ok {
					t.Fatalf("trial %d: drain emptiness disagreement", trial)
				}
				break
			}
			if !ok || si.Time != at || si.Payload != ap {
				t.Fatalf("trial %d: drain disagreement slice=(%g,%d) arena=(%g,%d)", trial, si.Time, si.Payload, at, ap)
			}
		}
		ap2, ao, ar := arenaQ.Stats()
		sp, so, sr := sliceQ.Stats()
		if ap2 != sp || ao != so || ar != sr {
			t.Fatalf("trial %d: stats disagree: arena=(%d,%d,%d) slice=(%d,%d,%d)",
				trial, ap2, ao, ar, sp, so, sr)
		}
	}
}

// TestArenaStaleHandles checks that handles kept past their event's lifetime
// can never affect the queue, even after their slot is recycled.
func TestArenaStaleHandles(t *testing.T) {
	q := NewArena[string]()
	h1 := q.Push(1, "a")
	if !q.Pending(h1) {
		t.Fatal("fresh handle should be pending")
	}
	if _, _, _, ok := q.Pop(); !ok {
		t.Fatal("pop failed")
	}
	if q.Pending(h1) {
		t.Error("popped handle still pending")
	}
	if q.Remove(h1) {
		t.Error("popped handle removable")
	}
	// Recycle the slot: the stale handle must not alias the new event.
	h2 := q.Push(2, "b")
	if h2.idx != h1.idx {
		t.Fatalf("expected slot recycling, got idx %d vs %d", h2.idx, h1.idx)
	}
	if q.Pending(h1) {
		t.Error("stale handle aliases recycled slot")
	}
	if q.Remove(h1) {
		t.Error("stale handle removed recycled slot's event")
	}
	if !q.Pending(h2) {
		t.Error("live handle lost")
	}
	var zero Handle
	if q.Pending(zero) || q.Remove(zero) {
		t.Error("zero handle must be invalid")
	}
	if _, ok := q.TimeOf(h2); !ok {
		t.Error("TimeOf on live handle failed")
	}
	if _, ok := q.TimeOf(h1); ok {
		t.Error("TimeOf on stale handle succeeded")
	}
}

// TestArenaReset checks Reset retains capacity, invalidates handles, and
// restarts the deterministic sequence numbering.
func TestArenaReset(t *testing.T) {
	q := NewArena[int]()
	var handles []Handle
	for i := 0; i < 32; i++ {
		handles = append(handles, q.Push(float64(i%4), i))
	}
	capBefore := q.Cap()
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	if q.Cap() != capBefore {
		t.Errorf("Cap after Reset = %d, want %d (capacity retained)", q.Cap(), capBefore)
	}
	for i, h := range handles {
		if q.Pending(h) {
			t.Fatalf("handle %d survives Reset", i)
		}
	}
	if p, o, r := q.Stats(); p != 0 || o != 0 || r != 0 {
		t.Errorf("stats after Reset = (%d,%d,%d), want zeros", p, o, r)
	}
	// Two identical runs after Reset must pop identically (seq restarted).
	runOrder := func() []int {
		var out []int
		for i := 0; i < 16; i++ {
			q.Push(float64(i%3), i)
		}
		for {
			_, _, p, ok := q.Pop()
			if !ok {
				break
			}
			out = append(out, p)
		}
		q.Reset()
		return out
	}
	a, b := runOrder(), runOrder()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pop order differs across Reset at %d: %v vs %v", i, a, b)
		}
	}
}

// TestArenaSteadyStateAllocs verifies the headline property: once warm, the
// push/pop/remove cycle does not allocate.
func TestArenaSteadyStateAllocs(t *testing.T) {
	q := NewArena[int]()
	warm := func() {
		var hs []Handle
		for i := 0; i < 64; i++ {
			hs = append(hs, q.Push(float64(i%7), i))
		}
		for i := 0; i < 16; i++ {
			q.Remove(hs[i*3])
		}
		for {
			if _, _, _, ok := q.Pop(); !ok {
				break
			}
		}
	}
	warm()
	//halotis:pins Push Pop
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.Push(float64(i%7), i)
		}
		for {
			if _, _, _, ok := q.Pop(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state allocs/cycle = %g, want 0", allocs)
	}
}

// TestArenaPushKeyed checks that PushKeyed orders same-time entries by the
// caller-supplied key regardless of push order, and that PeekKey exposes the
// head's full (time, key) ordering key.
func TestArenaPushKeyed(t *testing.T) {
	q := NewArena[string]()
	q.PushKeyed(2.0, 7, "t2k7")
	q.PushKeyed(1.0, 9, "t1k9")
	q.PushKeyed(1.0, 3, "t1k3")
	q.PushKeyed(1.0, 5, "t1k5")
	q.PushKeyed(3.0, 0, "t3k0")

	if tm, key, ok := q.PeekKey(); !ok || tm != 1.0 || key != 3 {
		t.Fatalf("PeekKey = (%v,%v,%v), want (1,3,true)", tm, key, ok)
	}
	want := []string{"t1k3", "t1k5", "t1k9", "t2k7", "t3k0"}
	for i, w := range want {
		_, _, payload, ok := q.Pop()
		if !ok || payload != w {
			t.Fatalf("pop %d = (%q,%v), want %q", i, payload, ok, w)
		}
	}
	if _, _, ok := q.PeekKey(); ok {
		t.Fatalf("PeekKey on empty queue reported ok")
	}
}

// TestArenaPushKeyedHandles checks Remove/TimeOf/Pending behave identically
// for keyed entries, and that Reset leaves the queue reusable for keyed use.
func TestArenaPushKeyedHandles(t *testing.T) {
	q := NewArena[int]()
	h1 := q.PushKeyed(5.0, 1, 10)
	h2 := q.PushKeyed(5.0, 2, 20)
	if !q.Pending(h1) || !q.Pending(h2) {
		t.Fatalf("keyed handles not pending")
	}
	if tm, ok := q.TimeOf(h2); !ok || tm != 5.0 {
		t.Fatalf("TimeOf(h2) = (%v,%v), want (5,true)", tm, ok)
	}
	if !q.Remove(h1) {
		t.Fatalf("Remove(h1) failed")
	}
	if q.Remove(h1) {
		t.Fatalf("double Remove(h1) succeeded")
	}
	if _, _, payload, ok := q.Pop(); !ok || payload != 20 {
		t.Fatalf("pop after remove = (%v,%v), want (20,true)", payload, ok)
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	q.PushKeyed(1.0, 4, 40)
	q.PushKeyed(1.0, 2, 30)
	if _, _, payload, ok := q.Pop(); !ok || payload != 30 {
		t.Fatalf("pop after reset = (%v,%v), want (30,true)", payload, ok)
	}
	pushed, popped, removed := q.Stats()
	if pushed != 2 || popped != 1 || removed != 0 {
		t.Fatalf("stats after reset = (%d,%d,%d), want (2,1,0)", pushed, popped, removed)
	}
}

// validate checks the radix queue's invariants: every filed entry names a
// live or removed slot exactly once and sits in the bucket its key names
// relative to last (at or above it), bucket 0 is a heap on the tie-break
// key, the non-empty mask matches the buckets, the live count matches the
// live entries filed, and every unfiled slot is free, the freelist and the
// filed entries together accounting for every slot.
func (q *ArenaQueue[T]) validate() error {
	filed := make([]bool, len(q.slots))
	live, removed := 0, 0
	for b, bucket := range q.buckets {
		if b > 0 && (len(bucket) > 0) != (q.full&(1<<(b-1)) != 0) {
			return fmt.Errorf("eventq: bucket %d holds %d entries, mask %#x", b, len(bucket), q.full)
		}
		for i, idx := range bucket {
			if filed[idx] {
				return fmt.Errorf("eventq: slot %d filed twice", idx)
			}
			filed[idx] = true
			s := &q.slots[idx]
			switch s.state {
			case slotLive:
				live++
			case slotRemoved:
				removed++
			default:
				return fmt.Errorf("eventq: free slot %d filed in bucket %d", idx, b)
			}
			k := radixKey(s.time)
			if k < q.last || bits.Len64(k^q.last) != b {
				return fmt.Errorf("eventq: slot %d (t=%g) in bucket %d, its key names bucket %d of last %#x",
					idx, s.time, b, bits.Len64(k^q.last), q.last)
			}
			if b == 0 && i > 0 && q.slots[bucket[(i-1)/2]].tie > s.tie {
				return fmt.Errorf("eventq: bucket 0 heap violation at %d", i)
			}
		}
	}
	if live != q.live {
		return fmt.Errorf("eventq: %d live entries filed, %d counted", live, q.live)
	}
	for i := range q.slots {
		if !filed[i] && q.slots[i].state != slotFree {
			return fmt.Errorf("eventq: slot %d is neither filed nor free", i)
		}
	}
	if n := len(q.free) + live + removed; n != len(q.slots) {
		return fmt.Errorf("eventq: %d free + %d filed slots of %d", len(q.free), live+removed, len(q.slots))
	}
	return nil
}

// popAll drains q, returning the payloads in pop order.
func popAll[T any](q *ArenaQueue[T]) []T {
	var out []T
	for {
		_, _, p, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

func TestEmptyQueue(t *testing.T) {
	q := NewArena[int]()
	if q.Len() != 0 {
		t.Errorf("Len = %d, want 0", q.Len())
	}
	if _, _, _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue should report !ok")
	}
	if _, ok := q.PeekTime(); ok {
		t.Error("PeekTime on empty queue should report !ok")
	}
	if q.Remove(NoHandle) {
		t.Error("Remove(NoHandle) should return false")
	}
}

func TestPushPopOrder(t *testing.T) {
	q := NewArena[string]()
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	if got := popAll(q); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("pop order = %v, want [a b c]", got)
	}
}

func TestTieBreakByInsertionOrder(t *testing.T) {
	q := NewArena[int]()
	for i := 0; i < 10; i++ {
		q.Push(5.0, i)
	}
	for i, got := range popAll(q) {
		if got != i {
			t.Fatalf("tie-break violated: got %d at position %d", got, i)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	q := NewArena[int]()
	q.Push(1, 42)
	if tm, ok := q.PeekTime(); !ok || tm != 1 || q.Len() != 1 {
		t.Error("PeekTime should not remove")
	}
}

func TestRemoveMiddle(t *testing.T) {
	q := NewArena[int]()
	var hs []Handle
	for i := 0; i < 20; i++ {
		hs = append(hs, q.Push(float64(i), i))
	}
	if !q.Remove(hs[7]) {
		t.Fatal("Remove failed")
	}
	if q.Pending(hs[7]) {
		t.Error("removed event still pending")
	}
	if err := q.validate(); err != nil {
		t.Fatal(err)
	}
	got := popAll(q)
	if len(got) != 19 || slices.Contains(got, 7) || !slices.IsSorted(got) {
		t.Errorf("pops after removing 7 = %v, want 0..19 without 7, sorted", got)
	}
}

func TestRemoveTwiceFails(t *testing.T) {
	q := NewArena[int]()
	h := q.Push(1, 1)
	if !q.Remove(h) {
		t.Fatal("first Remove failed")
	}
	if q.Remove(h) {
		t.Error("second Remove should fail")
	}
}

func TestRemovePoppedFails(t *testing.T) {
	q := NewArena[int]()
	h := q.Push(1, 1)
	q.Pop()
	if q.Remove(h) {
		t.Error("Remove after Pop should fail")
	}
}

func TestStats(t *testing.T) {
	q := NewArena[int]()
	a := q.Push(1, 1)
	q.Push(2, 2)
	q.Pop()
	q.Remove(a) // already popped -> no-op
	b := q.Push(3, 3)
	q.Remove(b)
	pushed, popped, removed := q.Stats()
	if pushed != 3 || popped != 1 || removed != 1 {
		t.Errorf("stats = %d,%d,%d want 3,1,1", pushed, popped, removed)
	}
}

func TestPendingLifecycle(t *testing.T) {
	q := NewArena[int]()
	h := q.Push(1, 1)
	if !q.Pending(h) {
		t.Error("pushed event not pending")
	}
	if popped, _, _, _ := q.Pop(); popped != h || q.Pending(h) {
		t.Error("Pop should return the pushed handle, no longer pending")
	}
}

// Property: for any interleaving of pushes and removals, pops come out in
// nondecreasing time order and equal the set of non-removed pushes.
func TestQueueSequenceProperty(t *testing.T) {
	f := func(seed int64, nQ uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nQ)%60 + 1
		q := NewArena[int]()
		var live []Handle
		var livePayloads []int
		for i := 0; i < n; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				if !q.Remove(live[k]) {
					return false
				}
				live = slices.Delete(live, k, k+1)
				livePayloads = slices.Delete(livePayloads, k, k+1)
			} else {
				live = append(live, q.Push(rng.Float64()*100, i))
				livePayloads = append(livePayloads, i)
			}
			if err := q.validate(); err != nil {
				t.Logf("heap invariant: %v", err)
				return false
			}
		}
		prev := -1.0
		var popped []int
		for {
			_, tm, p, ok := q.Pop()
			if !ok {
				break
			}
			if tm < prev {
				return false
			}
			prev = tm
			popped = append(popped, p)
		}
		slices.Sort(popped)
		return slices.Equal(popped, livePayloads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
