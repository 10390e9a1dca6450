package eventq

import (
	"math"
	"testing"
)

// Op codes of FuzzArenaQueue's byte stream (the op byte is taken mod 16;
// Push and PushKeyed are read from ranges so they dominate the mix).
const (
	fzPush       = 0  // 0-3: Push(time)
	fzPushKeyed  = 4  // 4-6: PushKeyed(time, key)
	fzPop        = 7  // 7-9: Pop
	fzRemove     = 10 // 10-11: Remove(a handle from the history)
	fzPeek       = 12 // PeekKey and PeekTime
	fzHandle     = 13 // TimeOf and Pending of a handle from the history
	fzCounts     = 14 // Len and Stats
	fzResetOrPop = 15 // Reset when the next byte is a multiple of 4, else Pop
)

// Time selectors: each push reads a selector byte (mod 6) and one operand
// byte.
const (
	fzTable  = 0 // fuzzTimes[operand]
	fzLast   = 1 // the last popped time: a tie with the extracted minimum
	fzUp     = 2 // last popped time plus fuzzSteps[operand]: the kernel's monotone stream
	fzDown   = 3 // last popped time minus fuzzSteps[operand]: a push below the last pop
	fzAdjac  = 4 // the float next to the last popped time, up or down
	fzCoarse = 5 // operand/4 - 8: coarse times, many ties
)

var fuzzTimes = []float64{
	0, math.Copysign(0, -1), 1, 1.5, 2, -1, -2.5, 0.1, 0.30000000000000004,
	5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-9,
	1e9, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
}

var fuzzSteps = []float64{0, 5e-324, 1e-12, 1e-3, 0.25, 1, 7, 1e6}

// fuzzMaxOps bounds one input's op stream; validate runs after every op.
const fuzzMaxOps = 512

// FuzzArenaQueue decodes an op stream from bytes and runs it on an
// ArenaQueue and on the SliceQueue oracle side by side: Push, PushKeyed,
// Pop, Remove of live, popped, removed and pre-Reset handles, PeekKey,
// PeekTime, TimeOf, Pending, Len, Stats and Reset. Every result must equal
// the oracle's (times bit for bit, handles of popped events equal to the
// ones their push returned), and the arena's invariants must hold after
// every op. Keyed pushes get unique keys above every insertion sequence,
// whose high byte is fuzzed, so same-time keyed entries pop in an order
// unrelated to their push order.
func FuzzArenaQueue(f *testing.F) {
	push := func(sel, operand byte) []byte { return []byte{fzPush, sel, operand} }
	keyed := func(sel, operand, key byte) []byte { return []byte{fzPushKeyed, sel, operand, key} }
	pop := []byte{fzPop}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// Equal times, both tie-break kinds.
	f.Add(cat(push(fzTable, 2), push(fzTable, 2), push(fzTable, 2), keyed(fzTable, 2, 9),
		keyed(fzTable, 2, 3), keyed(fzTable, 2, 3), pop, pop, pop, pop, pop, pop, pop))
	// -0 and +0 tie, in either push order.
	f.Add(cat(push(fzTable, 1), push(fzTable, 0), keyed(fzTable, 0, 5), keyed(fzTable, 1, 4),
		[]byte{fzPeek}, pop, pop, push(fzTable, 1), pop, pop, pop))
	// Tiny and huge magnitudes, infinities.
	f.Add(cat(push(fzTable, 9), push(fzTable, 10), push(fzTable, 11), push(fzTable, 17),
		push(fzTable, 18), push(fzTable, 19), push(fzTable, 20), push(fzTable, 15),
		pop, pop, pop, pop, pop, pop, pop, pop, pop))
	// The kernel's shape: monotone steps from the last pop, removals of live
	// and popped handles, TimeOf and Pending on each kind.
	f.Add(cat(keyed(fzTable, 2, 1), keyed(fzUp, 4, 2), keyed(fzUp, 5, 0), pop,
		keyed(fzUp, 3, 7), keyed(fzLast, 0, 6), []byte{fzRemove, 0, 1}, []byte{fzRemove, 0, 0},
		[]byte{fzHandle, 0, 1}, []byte{fzHandle, 0, 2}, pop, keyed(fzUp, 6, 1), keyed(fzAdjac, 1, 1),
		keyed(fzUp, 1, 8), []byte{fzCounts}, pop, pop, pop, pop, pop))
	// Pushes below the last pop re-bucket.
	f.Add(cat(push(fzTable, 14), push(fzTable, 15), push(fzTable, 3), pop, push(fzDown, 5),
		push(fzDown, 7), push(fzAdjac, 0), pop, push(fzTable, 16), push(fzTable, 6), pop, pop, pop, pop, pop))
	// A push after the last pop but below a peeked head re-buckets too, as
	// a partitioned lane's inbox crossing can: 1 and 7 pushed, 1 popped, 7
	// peeked, then 2 and 1.25 pushed.
	f.Add(cat(keyed(fzTable, 2, 1), keyed(fzUp, 6, 2), pop, []byte{fzPeek}, keyed(fzUp, 5, 3),
		keyed(fzUp, 4, 4), []byte{fzPeek}, pop, pop, pop))
	// Reset mid-stream, then handles from before it.
	f.Add(cat(push(fzCoarse, 40), push(fzCoarse, 41), push(fzCoarse, 40), pop, []byte{fzRemove, 0, 1},
		[]byte{fzResetOrPop, 0}, []byte{fzHandle, 0, 2}, []byte{fzRemove, 0, 2}, push(fzCoarse, 40),
		[]byte{fzCounts}, pop, pop))
	f.Fuzz(func(t *testing.T, data []byte) {
		runQueueOps(t, data)
	})
}

// fuzzEntry is one pushed event on both queues; its payload is its index
// in the history.
type fuzzEntry struct {
	h  Handle
	it *SliceItem[int]
}

// runQueueOps decodes and runs one op stream (see FuzzArenaQueue).
func runQueueOps(t *testing.T, data []byte) {
	q := NewArena[int]()
	o := NewSlice[int]()
	var hist []fuzzEntry
	lastPop := 0.0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	pick := func() *fuzzEntry {
		if len(hist) == 0 {
			return &fuzzEntry{}
		}
		n := int(next())<<8 | int(next())
		return &hist[n%len(hist)]
	}
	drawTime := func() float64 {
		sel, b := next()%6, next()
		switch sel {
		case fzTable:
			return fuzzTimes[int(b)%len(fuzzTimes)]
		case fzLast:
			return lastPop
		case fzUp:
			return lastPop + fuzzSteps[int(b)%len(fuzzSteps)]
		case fzDown:
			return lastPop - fuzzSteps[int(b)%len(fuzzSteps)]
		case fzAdjac:
			if b&1 == 0 {
				return math.Nextafter(lastPop, math.Inf(-1))
			}
			return math.Nextafter(lastPop, math.Inf(1))
		default:
			return float64(b)/4 - 8
		}
	}
	pop := func(step int) {
		h, tm, p, ok := q.Pop()
		it := o.Pop()
		if ok != (it != nil) {
			t.Fatalf("op %d: Pop ok = %v, oracle empty = %v", step, ok, it == nil)
		}
		if !ok {
			return
		}
		if math.Float64bits(tm) != math.Float64bits(it.Time) || p != it.Payload {
			t.Fatalf("op %d: Pop = (%g, %d), oracle (%g, %d)", step, tm, p, it.Time, it.Payload)
		}
		if h != hist[p].h {
			t.Fatalf("op %d: Pop handle %+v, Push returned %+v", step, h, hist[p].h)
		}
		lastPop = tm
	}
	for step := 0; len(data) > 0 && step < fuzzMaxOps; step++ {
		switch op := next() % 16; {
		case op < fzPushKeyed:
			tm := drawTime()
			p := len(hist)
			hist = append(hist, fuzzEntry{h: q.Push(tm, p), it: o.Push(tm, p)})
		case op < fzPop:
			tm := drawTime()
			p := len(hist)
			key := uint64(next())<<56 | 1<<40 | uint64(p)
			hist = append(hist, fuzzEntry{h: q.PushKeyed(tm, key, p), it: o.PushKeyed(tm, key, p)})
		case op < fzRemove:
			pop(step)
		case op < fzPeek:
			e := pick()
			if got, want := q.Remove(e.h), o.Remove(e.it); got != want {
				t.Fatalf("op %d: Remove = %v, oracle %v", step, got, want)
			}
		case op == fzPeek:
			tm, key, ok := q.PeekKey()
			pt, pok := q.PeekTime()
			it := o.Peek()
			if ok != (it != nil) || pok != ok {
				t.Fatalf("op %d: PeekKey/PeekTime ok = %v/%v, oracle empty = %v", step, ok, pok, it == nil)
			}
			if ok && (math.Float64bits(tm) != math.Float64bits(it.Time) || key != it.seq ||
				math.Float64bits(pt) != math.Float64bits(tm)) {
				t.Fatalf("op %d: PeekKey = (%g, %d), PeekTime %g, oracle (%g, %d)", step, tm, key, pt, it.Time, it.seq)
			}
		case op == fzHandle:
			e := pick()
			pending := e.it != nil && e.it.pending
			if got := q.Pending(e.h); got != pending {
				t.Fatalf("op %d: Pending = %v, oracle %v", step, got, pending)
			}
			tm, ok := q.TimeOf(e.h)
			if ok != pending || (ok && math.Float64bits(tm) != math.Float64bits(e.it.Time)) {
				t.Fatalf("op %d: TimeOf = (%g, %v), oracle pending %v", step, tm, ok, pending)
			}
		case op == fzCounts:
			if q.Len() != o.Len() {
				t.Fatalf("op %d: Len = %d, oracle %d", step, q.Len(), o.Len())
			}
			p1, o1, r1 := q.Stats()
			p2, o2, r2 := o.Stats()
			if p1 != p2 || o1 != o2 || r1 != r2 {
				t.Fatalf("op %d: Stats = (%d,%d,%d), oracle (%d,%d,%d)", step, p1, o1, r1, p2, o2, r2)
			}
		default:
			if next()%4 == 0 {
				q.Reset()
				o.Reset()
				lastPop = 0
			} else {
				pop(step)
			}
		}
		if q.Len() != o.Len() {
			t.Fatalf("op %d: Len = %d, oracle %d", step, q.Len(), o.Len())
		}
		if err := q.validate(); err != nil {
			t.Fatalf("op %d: %v", step, err)
		}
	}
	for o.Len() > 0 {
		pop(-1)
	}
	pop(-1) // both empty
	if err := q.validate(); err != nil {
		t.Fatal(err)
	}
	if q.Cap() != len(q.free) {
		t.Fatalf("drained queue keeps %d of %d slots off the freelist", q.Cap()-len(q.free), q.Cap())
	}
}
