package service

import (
	"fmt"
	"testing"

	"halotis/api"
	"halotis/internal/sim"
)

func TestResultCacheLRUAndStats(t *testing.T) {
	c := newResultCache(2)
	rep := func(id string) *api.Report { return &api.Report{Circuit: id} }

	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", rep("a"))
	c.Put("b", rep("b"))
	if got, ok := c.Get("a"); !ok || got.Circuit != "a" || !got.Cached {
		t.Fatalf("Get(a) = %+v, %v", got, ok)
	}
	c.Put("c", rep("c")) // evicts b (LRU after a's refresh)
	if _, ok := c.Get("b"); ok {
		t.Error("LRU victim b survived")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used a evicted")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries, 1 eviction", st)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", st.Hits, st.Misses)
	}

	// Hits are copies with Cached set; the stored report is untouched so
	// later hits are not double-marked reads of a mutated shared value.
	first, _ := c.Get("a")
	second, _ := c.Get("a")
	if !first.Cached || !second.Cached {
		t.Error("hit not marked Cached")
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.Put("k", &api.Report{})
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("disabled cache counted: %+v", st)
	}
}

// TestResultKeyFingerprint pins which request knobs participate in the
// result key, and which requests have none.
func TestResultKeyFingerprint(t *testing.T) {
	st := sim.Stimulus{"a": {Edges: []sim.InputEdge{{Time: 1, Rising: true, Slew: 0.2}}}}
	base := func() (*api.Request, sim.PoolKey) {
		req := &api.Request{TEnd: 30}
		return req, req.Options().PoolKey()
	}
	resultKey := func(id string, st sim.Stimulus, req *api.Request, key sim.PoolKey) string {
		k, ok := ResultKey(id, st, req, key)
		if !ok {
			t.Fatalf("request %+v reported uncacheable", req)
		}
		return k
	}
	req, key := base()
	ref := resultKey("cid", st, req, key)

	if got := resultKey("cid", st, req, key); got != ref {
		t.Fatal("identical inputs produced different keys")
	}
	if got := resultKey("other", st, req, key); got == ref {
		t.Error("circuit ID not in key")
	}
	st2 := sim.Stimulus{"a": {Edges: []sim.InputEdge{{Time: 2, Rising: true, Slew: 0.2}}}}
	if got := resultKey("cid", st2, req, key); got == ref {
		t.Error("stimulus not in key")
	}
	for name, mutate := range map[string]func(*api.Request){
		"t_end":     func(r *api.Request) { r.TEnd = 31 },
		"model":     func(r *api.Request) { r.Model = "cdm" },
		"activity":  func(r *api.Request) { r.Activity = true },
		"power":     func(r *api.Request) { r.Power = true },
		"vcd":       func(r *api.Request) { r.VCD = true },
		"waveforms": func(r *api.Request) { r.Waveforms = []string{"y"} },
		"maxevents": func(r *api.Request) { r.MaxEvents = 99 },
		"minpulse":  func(r *api.Request) { r.MinPulse = 0.5 },
	} {
		req, _ := base()
		mutate(req)
		if got := resultKey("cid", st, req, req.Options().PoolKey()); got == ref {
			t.Errorf("%s not in key", name)
		}
	}

	// TimeoutMs and Partitions are excluded by design: neither can change
	// the outcome.
	req, _ = base()
	req.TimeoutMs = 5000
	req.Partitions = 4
	if got := resultKey("cid", st, req, req.Options().PoolKey()); got != ref {
		t.Error("timeout_ms or partitions leaked into the result key")
	}

	// A profile describes one execution, so a profiled request has no key.
	req, key = base()
	req.Profile = true
	if k, ok := ResultKey("cid", st, req, key); ok {
		t.Errorf("profiled request keyed as %q, want uncacheable", k)
	}

	// Waveform name lists must not be separator-ambiguous.
	reqA, _ := base()
	reqA.Waveforms = []string{"a\x00b"}
	reqB, _ := base()
	reqB.Waveforms = []string{"a", "b"}
	if resultKey("cid", st, reqA, key) == resultKey("cid", st, reqB, key) {
		t.Error("waveform list encoding is ambiguous")
	}
}

func TestResultCacheCapacityBound(t *testing.T) {
	const cap = 8
	c := newResultCache(cap)
	for i := 0; i < 4*cap; i++ {
		c.Put(fmt.Sprintf("k%d", i), &api.Report{})
	}
	if st := c.Stats(); st.Entries != cap {
		t.Errorf("entries = %d, bound is %d", st.Entries, cap)
	}
}
