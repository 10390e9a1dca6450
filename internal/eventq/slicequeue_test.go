package eventq

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestHeapMatchesSliceDifferential drives the arena queue and the reference
// slice queue with identical operation sequences and requires identical pop
// streams — the correctness argument for the radix structure.
func TestHeapMatchesSliceDifferential(t *testing.T) {
	f := func(seed int64, nQ uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nQ)%80 + 5
		h := NewArena[int]()
		s := NewSlice[int]()
		var hs []Handle
		var sItems []*SliceItem[int]
		for i := 0; i < n; i++ {
			switch {
			case len(hs) > 0 && rng.Intn(4) == 0:
				k := rng.Intn(len(hs))
				if h.Remove(hs[k]) != s.Remove(sItems[k]) {
					return false
				}
				hs = append(hs[:k], hs[k+1:]...)
				sItems = append(sItems[:k], sItems[k+1:]...)
			case len(hs) > 0 && rng.Intn(5) == 0:
				hp, tm, p, ok := h.Pop()
				sp := s.Pop()
				if ok != (sp != nil) || (ok && (tm != sp.Time || p != sp.Payload)) {
					return false
				}
				// Drop the popped event from the tracking slices.
				for k := range hs {
					if hs[k] == hp {
						hs = append(hs[:k], hs[k+1:]...)
						sItems = append(sItems[:k], sItems[k+1:]...)
						break
					}
				}
			default:
				tm := float64(rng.Intn(50)) // coarse times force tie-breaking
				hs = append(hs, h.Push(tm, i))
				sItems = append(sItems, s.Push(tm, i))
			}
		}
		for {
			_, tm, p, ok := h.Pop()
			sp := s.Pop()
			if ok != (sp != nil) {
				return false
			}
			if !ok {
				break
			}
			if tm != sp.Time || p != sp.Payload {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSliceQueueBasics(t *testing.T) {
	q := NewSlice[string]()
	if q.Pop() != nil || q.Peek() != nil {
		t.Error("empty queue misbehaves")
	}
	a := q.Push(2, "a")
	q.Push(1, "b")
	if q.Peek().Payload != "b" {
		t.Error("Peek wrong")
	}
	if !q.Remove(a) || q.Remove(a) {
		t.Error("Remove semantics wrong")
	}
	if q.Pop().Payload != "b" {
		t.Error("Pop wrong")
	}
	pushed, popped, removed := q.Stats()
	if pushed != 2 || popped != 1 || removed != 1 {
		t.Errorf("stats = %d/%d/%d", pushed, popped, removed)
	}
}

// Ablation benchmarks: the arena queue against the O(n) baseline on the
// traffic the simulation kernel sends a queue. Every op pushes one event
// at the last popped time plus a random delay; for one push in six it then
// removes one of the last recentWindow events pushed (a pre-empted
// crossing), otherwise it pops the earliest event, so the queue holds its
// starting size: 150 pending events (the mean for the 1k-gate random DAG)
// or 9,000 (a lane of the 100k-gate random DAG at two partitions). An op
// whose victim already fired pops instead.
func BenchmarkAblationHeapMixed(b *testing.B) {
	for _, n := range ablationSizes {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			ops := kernelOps(n)
			q := NewArena[int]()
			var recent [recentWindow]Handle
			for i := 0; i < n; i++ {
				recent[i%recentWindow] = q.Push(ops[i].delay, i)
			}
			last := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := &ops[i%len(ops)]
				h := q.Push(last+op.delay, i)
				if !op.remove || !q.Remove(recent[op.victim]) {
					_, last, _, _ = q.Pop()
				}
				recent[i%recentWindow] = h
			}
		})
	}
}

func BenchmarkAblationSliceMixed(b *testing.B) {
	for _, n := range ablationSizes {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			ops := kernelOps(n)
			q := NewSlice[int]()
			var recent [recentWindow]*SliceItem[int]
			for i := 0; i < n; i++ {
				recent[i%recentWindow] = q.Push(ops[i].delay, i)
			}
			last := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := &ops[i%len(ops)]
				it := q.Push(last+op.delay, i)
				if !op.remove || !q.Remove(recent[op.victim]) {
					last = q.Pop().Time
				}
				recent[i%recentWindow] = it
			}
		})
	}
}

// ablationSizes are the pending-event counts the ablation benchmarks hold.
var ablationSizes = []int{150, 9000}

// recentWindow is how many of the latest pushes a removal picks from.
const recentWindow = 64

type kernelOp struct {
	delay  float64 // ns after the last popped time
	remove bool
	victim int // index into the recent pushes
}

// kernelOps draws a cyclic op stream of at least n ops (n also seeds the
// initial fill) with delays uniform in [0, 1) ns and one removal in six.
func kernelOps(n int) []kernelOp {
	rng := rand.New(rand.NewSource(1))
	ops := make([]kernelOp, max(n, 4096))
	for i := range ops {
		ops[i] = kernelOp{
			delay:  rng.Float64(),
			remove: rng.Intn(6) == 0,
			victim: rng.Intn(recentWindow),
		}
	}
	return ops
}
