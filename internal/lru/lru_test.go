package lru

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// evictLog records the hook's calls.
type evictLog struct {
	mu   sync.Mutex
	keys []string
}

func (l *evictLog) hook(k string, _ int) {
	l.mu.Lock()
	l.keys = append(l.keys, k)
	l.mu.Unlock()
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	var log evictLog
	c := New(2, log.hook)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("c", 3) // a was refreshed, so b is the victim
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used b survived")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted", k)
		}
	}
	if !slices.Equal(log.keys, []string{"b"}) {
		t.Errorf("hook saw %v, want [b]", log.keys)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestPutReplacesAndRefreshes(t *testing.T) {
	var log evictLog
	c := New(2, log.hook)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // replaces without evicting, and makes b the oldest
	if len(log.keys) != 0 || c.Len() != 2 {
		t.Fatalf("replacing put evicted %v, Len = %d", log.keys, c.Len())
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("Get(a) = %d, want the replacement 10", v)
	}
	c.Put("c", 3)
	if !slices.Equal(log.keys, []string{"b"}) {
		t.Errorf("hook saw %v, want [b]", log.keys)
	}
}

func TestHookOncePerEvictionNeverOnRemove(t *testing.T) {
	var log evictLog
	c := New(3, log.hook)
	for i := range 10 {
		c.Put(fmt.Sprint(i), i)
	}
	if want := []string{"0", "1", "2", "3", "4", "5", "6"}; !slices.Equal(log.keys, want) {
		t.Errorf("hook saw %v, want %v", log.keys, want)
	}
	if v, ok := c.Remove("8"); !ok || v != 8 {
		t.Errorf("Remove(8) = %d, %v", v, ok)
	}
	if _, ok := c.Remove("8"); ok {
		t.Error("second Remove found the key")
	}
	if len(log.keys) != 7 || c.Len() != 2 {
		t.Errorf("after Remove: hook calls %d, Len %d; want 7, 2", len(log.keys), c.Len())
	}
	c.Put("10", 10) // back at capacity: no eviction
	if len(log.keys) != 7 {
		t.Errorf("Put into freed room evicted %v", log.keys[7:])
	}
}

func TestValuesMostRecentFirstWithoutReordering(t *testing.T) {
	c := New[string, int](4, nil)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i)
	}
	c.Get("a")
	want := []int{0, 2, 1} // a, c, b
	if got := c.Values(); !slices.Equal(got, want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
	if got := c.Values(); !slices.Equal(got, want) {
		t.Errorf("second Values = %v: listing reordered the cache", got)
	}
	c.Put("d", 3)
	c.Put("e", 4) // b is still the oldest
	if _, ok := c.Get("b"); ok {
		t.Error("listing refreshed b")
	}
}

func TestCapacityBelowOneHoldsOne(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		var log evictLog
		c := New(capacity, log.hook)
		c.Put("a", 1)
		if v, ok := c.Get("a"); !ok || v != 1 {
			t.Errorf("capacity %d: Get(a) = %d, %v", capacity, v, ok)
		}
		c.Put("b", 2)
		if _, ok := c.Get("a"); ok || c.Len() != 1 || !slices.Equal(log.keys, []string{"a"}) {
			t.Errorf("capacity %d: Len %d, evicted %v; want 1, [a]", capacity, c.Len(), log.keys)
		}
	}
}

// TestConcurrentUse runs Get, Put and Remove from several goroutines; run
// it under -race. The bound must hold throughout, and the hook must still
// see the evictions.
func TestConcurrentUse(t *testing.T) {
	const capacity, workers, ops = 16, 8, 2000
	var evicted sync.Map
	c := New(capacity, func(k string, _ int) { evicted.Store(k, true) })
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for i := range ops {
				k := fmt.Sprint(w, "/", i%40)
				switch i % 5 {
				case 0:
					c.Remove(k)
				case 1, 2:
					c.Get(k)
				default:
					c.Put(k, i)
				}
				if n := c.Len(); n > capacity {
					t.Errorf("Len = %d past capacity %d", n, capacity)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(c.Values()); n != c.Len() || n > capacity {
		t.Errorf("Values holds %d, Len %d, capacity %d", n, c.Len(), capacity)
	}
	n := 0
	evicted.Range(func(any, any) bool { n++; return true })
	if n == 0 {
		t.Error("no evictions under a key space larger than capacity")
	}
}
