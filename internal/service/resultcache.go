package service

import (
	"strconv"
	"strings"
	"sync/atomic"

	"halotis/api"
	"halotis/internal/lru"
	"halotis/internal/sim"
)

// ResultCacheStats is the result cache's counter snapshot.
type ResultCacheStats struct {
	// Entries is the current number of cached reports.
	Entries int `json:"entries"`
	// Hits counts requests answered from the cache without a kernel run;
	// Misses counts runs whose key was absent (and was then stored).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts LRU evictions.
	Evictions uint64 `json:"evictions"`
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s ResultCacheStats) HitRate() float64 { return hitRate(s.Hits, s.Misses) }

// ResultKey identifies one deterministic simulation outcome: the circuit's
// content hash, the stimulus's content hash, and the fingerprint of every
// request knob that shapes the report. Simulation is a pure function of
// this key, which is what makes caching sound: a repeat of the key repeats
// the result bit for bit. The replica's result cache and the router's
// stale-serve store both key on it, so they agree on what a repeat is.
//
// TimeoutMs is excluded: a deadline changes whether a run finishes, never
// what it computes. Partitions is excluded for the same reason: the
// partitioned kernel is bit-identical to the sequential one, so requests
// differing only in partition count share an entry (they do get distinct
// engine pools; see sim.PoolKey).
//
// ok is false for a profiled request: its profile describes one execution,
// not the result, so it is never answered from a cache or stored in one.
func ResultKey(circuitID string, st sim.Stimulus, req *api.Request, key sim.PoolKey) (k string, ok bool) {
	if req.Profile {
		return "", false
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	parts := []string{
		circuitID,
		st.ContentHash(),
		strconv.Itoa(int(key.Model)),
		g(key.MinPulse),
		strconv.FormatUint(key.MaxEvents, 10),
		g(req.TEnd),
		strconv.FormatBool(req.Activity), strconv.FormatBool(req.Power), strconv.FormatBool(req.VCD),
		strconv.Itoa(len(req.Waveforms)),
	}
	parts = append(parts, req.Waveforms...)
	return strings.Join(parts, "\x00"), true
}

// resultCache is the bounded LRU of finished reports, keyed by ResultKey.
// Cached *api.Report values are shared and must be treated as immutable;
// hits are served as shallow copies with Cached set (the copy shares the
// underlying maps and slices, which nothing mutates after construction).
type resultCache struct {
	lru                     *lru.Cache[string, *api.Report] // nil when disabled
	hits, misses, evictions atomic.Uint64
}

// newResultCache builds a cache holding at most capacity reports;
// capacity <= 0 disables caching (every lookup misses, nothing stores).
func newResultCache(capacity int) *resultCache {
	c := &resultCache{}
	if capacity > 0 {
		c.lru = lru.New(capacity, func(string, *api.Report) { c.evictions.Add(1) })
	}
	return c
}

// Get returns the cached report for the key, marked Cached, refreshing its
// LRU position.
func (c *resultCache) Get(key string) (*api.Report, bool) {
	if c.lru == nil {
		return nil, false
	}
	rep, ok := c.lru.Get(key)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	cp := *rep
	cp.Cached = true
	return &cp, true
}

// Put stores a finished report under the key, evicting the LRU entry beyond
// capacity. Concurrent identical runs may both Put; the second simply
// refreshes the entry.
func (c *resultCache) Put(key string, rep *api.Report) {
	if c.lru != nil {
		c.lru.Put(key, rep)
	}
}

// Stats snapshots the cache counters.
func (c *resultCache) Stats() ResultCacheStats {
	st := ResultCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
	if c.lru != nil {
		st.Entries = c.lru.Len()
	}
	return st
}
