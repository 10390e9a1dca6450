package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"halotis/api"
	"halotis/internal/cellib"
	"halotis/internal/circ"
	"halotis/internal/lru"
	"halotis/internal/netfmt"
	"halotis/internal/sim"
)

// CacheStats is the compiled-circuit cache's counter snapshot.
type CacheStats struct {
	// Entries is the current number of cached circuits.
	Entries int `json:"entries"`
	// Hits counts lookups (by ID or by content) that found a cached
	// compilation; Misses counts well-formed content that had to be
	// compiled. Lookups of unknown or evicted IDs are NotFound — kept out
	// of the hit rate so a client retrying a stale ID cannot zero out the
	// metric real traffic is judged by.
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	NotFound uint64 `json:"not_found"`
	// Compiles counts parse+compile executions. Lookups by ID never
	// compile; an upload of a structurally equivalent but not
	// byte-identical text counts both a compile (the parse needed to
	// discover the equivalence) and a hit (the cached entry it landed on).
	Compiles uint64 `json:"compiles"`
	// Evictions counts LRU evictions.
	Evictions uint64 `json:"evictions"`
	// EnginesCreated counts sim engines constructed across all pools;
	// flat under steady-state traffic once pools are warm.
	EnginesCreated uint64 `json:"engines_created"`
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 { return hitRate(s.Hits, s.Misses) }

// hitRate is hits / (hits + misses), or 0 before any lookup.
func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// maxRawKeysPerEntry bounds the raw-text index entries one circuit may
// hold: beyond it the oldest raw key is dropped (its text just re-parses on
// the next upload), so a stream of whitespace-variant uploads of one hot
// circuit cannot grow daemon memory without bound.
const maxRawKeysPerEntry = 8

// cacheEntry is one cached circuit: its compiled IR, display metadata, and
// the warm engine pool keyed by run options (see sim.EnginePool).
type cacheEntry struct {
	info  CircuitInfo
	ir    *circ.Compiled
	pools *sim.EnginePool
	// rawKeys are the raw-text index keys pointing at this entry (oldest
	// first, bounded by maxRawKeysPerEntry), removed with it on eviction.
	rawKeys []string
}

// compileFlight collapses concurrent uploads of identical text into one
// parse+compile (singleflight).
type compileFlight struct {
	done   chan struct{}
	ent    *cacheEntry
	cached bool
	err    error
}

// circuitCache is the content-addressed LRU compiled-circuit cache.
//
// Two indexes reach an entry: the content hash of the parsed circuit (the
// public circuit ID, stable across whitespace-equivalent netlist texts) and
// a raw-text index that lets byte-identical re-uploads skip even the parse.
// mu guards the raw index and the singleflight table. The entries LRU locks
// itself; its eviction hook runs under mu, because only Add, which holds
// mu, puts.
type circuitCache struct {
	mu       sync.Mutex
	lib      *cellib.Library
	poolSize int
	replica  string // stamped into every entry's CircuitInfo

	entries  *lru.Cache[string, *cacheEntry] // by content hash (circuit ID)
	rawIndex map[string]string               // raw text key -> circuit ID
	inflight map[string]*compileFlight

	hits, misses, notFound, compiles, evictions atomic.Uint64
	enginesCreated                              atomic.Uint64 // incremented by pools
}

func newCircuitCache(lib *cellib.Library, capacity, poolSize int, replica string) *circuitCache {
	c := &circuitCache{
		lib:      lib,
		poolSize: poolSize,
		replica:  replica,
		rawIndex: make(map[string]string),
		inflight: make(map[string]*compileFlight),
	}
	c.entries = lru.New(capacity, func(_ string, e *cacheEntry) {
		c.dropRawKeys(e)
		c.evictions.Add(1)
	})
	return c
}

// dropRawKeys removes an entry's raw-text index keys as it leaves the
// cache, so no raw key resolves to a departed ID. Callers hold mu.
func (c *circuitCache) dropRawKeys(e *cacheEntry) {
	for _, k := range e.rawKeys {
		delete(c.rawIndex, k)
	}
}

// rawKey fingerprints the exact upload text (plus format and library
// identity) for the byte-identical fast path.
func rawKey(libName, format, text string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", libName, format)
	h.Write([]byte(text))
	return hex.EncodeToString(h.Sum(nil))
}

func (c *circuitCache) newEntry(ir *circ.Compiled) *cacheEntry {
	info := api.InfoOf(ir)
	info.Replica = c.replica
	return &cacheEntry{
		info:  info,
		ir:    ir,
		pools: sim.NewEnginePool(ir, c.poolSize, &c.enginesCreated),
	}
}

// Add parses, compiles and caches a netlist text, returning the entry and
// whether the content was already cached. Concurrent Adds of identical text
// share one compile; re-adds of byte-identical text skip even the parse;
// structurally equivalent variants (whitespace, comments) land on the same
// entry via the content hash.
func (c *circuitCache) Add(text, format, name string) (*cacheEntry, bool, error) {
	key := rawKey(c.lib.Name, format, text)

	c.mu.Lock()
	if id, ok := c.rawIndex[key]; ok {
		e, _ := c.entries.Get(id) // present: raw keys leave with their entry
		c.hits.Add(1)
		c.mu.Unlock()
		return e, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.ent, f.cached, f.err
	}
	f := &compileFlight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	// Parse and compile outside the lock: uploads must not stall cache
	// hits on other circuits.
	ckt, err := netfmt.ParseText(text, format, c.lib, name)
	var ir *circ.Compiled
	if err == nil {
		ir = circ.Compile(ckt)
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if err != nil {
		c.mu.Unlock()
		f.err = err
		close(f.done)
		return nil, false, err
	}
	c.compiles.Add(1)
	e, existed := c.entries.Get(ir.Hash)
	if existed {
		// Structurally equivalent content already cached: keep the
		// existing entry and its warm engine pools.
		c.hits.Add(1)
	} else {
		e = c.newEntry(ir)
		c.entries.Put(ir.Hash, e)
		c.misses.Add(1)
	}
	if len(e.rawKeys) >= maxRawKeysPerEntry {
		delete(c.rawIndex, e.rawKeys[0])
		e.rawKeys = append(e.rawKeys[:0], e.rawKeys[1:]...)
	}
	e.rawKeys = append(e.rawKeys, key)
	c.rawIndex[key] = e.info.ID
	c.mu.Unlock()

	f.ent, f.cached = e, existed
	close(f.done)
	return e, existed, nil
}

// Get looks a circuit up by ID, refreshing its LRU position.
func (c *circuitCache) Get(id string) (*cacheEntry, bool) {
	e, ok := c.entries.Get(id)
	if !ok {
		c.notFound.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// Evict removes a circuit by ID; it reports whether one was present.
func (c *circuitCache) Evict(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Remove(id)
	if ok {
		c.dropRawKeys(e)
	}
	return ok
}

// List returns the cached circuits in most-recently-used order.
func (c *circuitCache) List() []CircuitInfo {
	entries := c.entries.Values()
	out := make([]CircuitInfo, len(entries))
	for i, e := range entries {
		out[i] = e.info
	}
	return out
}

// Stats snapshots the cache counters.
func (c *circuitCache) Stats() CacheStats {
	return CacheStats{
		Entries:        c.entries.Len(),
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		NotFound:       c.notFound.Load(),
		Compiles:       c.compiles.Load(),
		Evictions:      c.evictions.Load(),
		EnginesCreated: c.enginesCreated.Load(),
	}
}
