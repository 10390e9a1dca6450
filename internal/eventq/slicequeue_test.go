package eventq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestHeapMatchesSliceDifferential drives the arena heap and the reference
// slice queue with identical operation sequences and requires identical pop
// streams — the correctness argument for the O(log n) structure.
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

// Ablation benchmark: the arena heap against the O(n) baseline on a mixed
// push/pop/remove workload of simulator-like size.
func BenchmarkAblationHeapMixed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ops := makeOps(rng, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := NewArena[int]()
		var live []Handle
		for _, op := range ops {
			switch {
			case op.remove && len(live) > 0:
				k := op.idx % len(live)
				q.Remove(live[k])
				live = append(live[:k], live[k+1:]...)
			case op.pop:
				q.Pop()
			default:
				live = append(live, q.Push(op.time, op.idx))
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}

func BenchmarkAblationSliceMixed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ops := makeOps(rng, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := NewSlice[int]()
		var live []*SliceItem[int]
		for _, op := range ops {
			switch {
			case op.remove && len(live) > 0:
				k := op.idx % len(live)
				q.Remove(live[k])
				live = append(live[:k], live[k+1:]...)
			case op.pop:
				q.Pop()
			default:
				live = append(live, q.Push(op.time, op.idx))
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}

type qop struct {
	time        float64
	idx         int
	pop, remove bool
}

func makeOps(rng *rand.Rand, n int) []qop {
	ops := make([]qop, n)
	for i := range ops {
		ops[i] = qop{
			time:   rng.Float64() * 1000,
			idx:    rng.Int(),
			pop:    rng.Intn(5) == 0,
			remove: rng.Intn(6) == 0,
		}
	}
	return ops
}
