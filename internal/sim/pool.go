package sim

import (
	"sync"
	"sync/atomic"

	"halotis/internal/circ"
)

// PoolKey is the comparable options key an engine pool is selected by:
// engines prepared with different delay models, kernel limits or partition
// counts are not interchangeable (a partitioned engine carries per-partition
// queues and mailboxes sized to its count), everything else (context, worker
// count) is per-run. Partitions changes how a result is computed, never what
// it is — the service's result-cache key deliberately excludes it.
type PoolKey struct {
	Model      Model
	MinPulse   float64
	MaxEvents  uint64
	Partitions int
}

// PoolKey normalizes the options onto a pool key: explicit spellings of
// the engine defaults map onto the same key as omitting them, so
// "MaxEvents omitted" and "MaxEvents: 50000000" share a warm-engine free
// list. Partitions is clamped to [0, MaxPartitions], with 0 (auto) kept
// distinct from explicit counts.
func (o Options) PoolKey() PoolKey {
	k := PoolKey{Model: o.Model, MinPulse: o.MinPulse, MaxEvents: o.MaxEvents, Partitions: o.Partitions}
	if k.MinPulse <= 0 {
		k.MinPulse = DefaultMinPulse
	}
	if k.MaxEvents == 0 {
		k.MaxEvents = DefaultMaxEvents
	}
	if k.Partitions < 0 {
		k.Partitions = 0
	}
	if k.Partitions > MaxPartitions {
		k.Partitions = MaxPartitions
	}
	return k
}

// Options expands the key back into engine options.
func (k PoolKey) Options() Options {
	return Options{Model: k.Model, MinPulse: k.MinPulse, MaxEvents: k.MaxEvents, Partitions: k.Partitions}
}

// maxEnginePoolKeys bounds the distinct options keys one pool retains warm
// engines for; see the EnginePool comment.
const maxEnginePoolKeys = 8

// EnginePool keeps warm, reusable Engine instances for one compiled
// circuit, one free list per options key. After a pool's engines have been
// through a warm-up run, steady-state traffic acquires an engine whose
// buffers are already grown — the zero-allocation reuse path — instead of
// paying engine construction and buffer growth per request. It is safe for
// concurrent use; the engines it hands out are not (one per goroutine).
//
// The free lists are bounded two ways: at most max engines are retained
// per options key, and at most maxEnginePoolKeys distinct keys retain
// engines at all (callers sweeping MaxEvents/MinPulse values cannot grow
// the map without bound — exotic keys still run, their engines just go to
// the GC on release). Releases beyond either bound drop the engine.
type EnginePool struct {
	mu      sync.Mutex
	ir      *circ.Compiled
	max     int
	free    map[PoolKey][]*Engine
	created *atomic.Uint64
	own     atomic.Uint64
}

// NewEnginePool builds a pool over a compiled circuit retaining at most
// max free engines per options key. created, when non-nil, is incremented
// for every engine the pool constructs (callers aggregating a counter
// across pools); the pool always counts into its own Created() as well.
func NewEnginePool(ir *circ.Compiled, max int, created *atomic.Uint64) *EnginePool {
	return &EnginePool{ir: ir, max: max, free: make(map[PoolKey][]*Engine), created: created}
}

// IR returns the compiled circuit the pool's engines run against.
func (p *EnginePool) IR() *circ.Compiled { return p.ir }

// Created reports how many engines this pool has constructed; flat under
// steady-state traffic once the pool is warm.
func (p *EnginePool) Created() uint64 { return p.own.Load() }

// Acquire pops a warm engine for the options key, or builds one.
//
//halotis:noalloc
func (p *EnginePool) Acquire(k PoolKey) *Engine {
	p.mu.Lock()
	free := p.free[k]
	if n := len(free); n > 0 {
		eng := free[n-1]
		free[n-1] = nil
		p.free[k] = free[:n-1]
		p.mu.Unlock()
		return eng
	}
	p.mu.Unlock()
	p.own.Add(1)
	if p.created != nil {
		p.created.Add(1)
	}
	return NewEngineFromIR(p.ir, k.Options())
}

// Release returns an engine to its free list (or drops it when the per-key
// list, or the key count itself, is at its bound). It first clears the
// engine's run state: profiling goes off and the progress counter is
// detached, whatever its last caller set.
//
//halotis:noalloc
func (p *EnginePool) Release(k PoolKey, eng *Engine) {
	eng.profiling = false
	eng.progress = nil
	p.mu.Lock()
	free, ok := p.free[k]
	if !ok && len(p.free) >= maxEnginePoolKeys {
		p.mu.Unlock()
		return
	}
	if len(free) < p.max {
		p.free[k] = append(free, eng)
	}
	p.mu.Unlock()
}

// keyCount reports the distinct options keys currently retaining engines
// (tests pin the maxEnginePoolKeys bound through it).
func (p *EnginePool) keyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// freeCount reports the free engines retained for one key.
func (p *EnginePool) freeCount(k PoolKey) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free[k])
}
