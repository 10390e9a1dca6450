package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Hedged requests: tail latency on a replicated read is dominated by the
// occasional slow replica (GC pause, queue spike, packet loss), not the
// median one. When the first-ranked replica has not answered within its
// own observed p95, a second attempt is fired at the next-ranked holder
// and the first success wins. The hedge is one more attempt of route's
// loop (failover.go), raced against the first; this file holds what arms
// it: the policy, each replica's latency history, and a token budget (a
// fixed fraction of request volume) so a globally slow fleet degrades to
// plain serial behavior instead of doubling its own load — the classic
// "tied requests" guardrails.

// HedgePolicy tunes hedged reads on the routing layer.
type HedgePolicy struct {
	// Disabled turns hedging off entirely.
	Disabled bool
	// Quantile of the primary replica's observed success latency at which
	// the hedge fires (default 0.95).
	Quantile float64
	// MinDelay floors the hedge delay (default 10ms), so sub-millisecond
	// fast paths and transport errors resolve serially before any hedge.
	MinDelay time.Duration
	// MaxRatio caps hedges as a fraction of routed requests (default 0.1).
	MaxRatio float64
	// Warmup is how many success latency samples a replica must have
	// before its quantile is trusted enough to hedge (default 16).
	Warmup int
}

func (p HedgePolicy) withDefaults() HedgePolicy {
	if p.Quantile <= 0 || p.Quantile >= 1 {
		p.Quantile = 0.95
	}
	if p.MinDelay <= 0 {
		p.MinDelay = 10 * time.Millisecond
	}
	if p.MaxRatio <= 0 || p.MaxRatio > 1 {
		p.MaxRatio = 0.1
	}
	if p.Warmup <= 0 {
		p.Warmup = 16
	}
	return p
}

// latencyTracker keeps a ring of recent success latencies per replica and
// answers quantile queries over it.
type latencyTracker struct {
	mu  sync.Mutex
	buf [64]time.Duration
	n   uint64 // total samples recorded (ring holds the last len(buf))
}

func (t *latencyTracker) record(d time.Duration) {
	t.mu.Lock()
	t.buf[t.n%uint64(len(t.buf))] = d
	t.n++
	t.mu.Unlock()
}

func (t *latencyTracker) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n
	if n > uint64(len(t.buf)) {
		n = uint64(len(t.buf))
	}
	return int(n)
}

// quantile returns the q-quantile of the retained samples (false when
// empty). The window is 64 samples; sorting a copy is cheap next to an
// HTTP round trip.
func (t *latencyTracker) quantile(q float64) (time.Duration, bool) {
	t.mu.Lock()
	n := int(t.n)
	if n > len(t.buf) {
		n = len(t.buf)
	}
	samples := append([]time.Duration(nil), t.buf[:n]...)
	t.mu.Unlock()
	if len(samples) == 0 {
		return 0, false
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(q * float64(len(samples)))
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx], true
}

// hedgeDelay decides whether the replica has enough latency history to
// hedge against, and the delay to use.
func (t *latencyTracker) hedgeDelay(pol HedgePolicy) (time.Duration, bool) {
	if t.count() < pol.Warmup {
		return 0, false
	}
	q, ok := t.quantile(pol.Quantile)
	if !ok {
		return 0, false
	}
	if q < pol.MinDelay {
		q = pol.MinDelay
	}
	return q, true
}

// hedgeBudget is a milli-token bucket bounding hedges to MaxRatio of
// request volume: each routed request earns ratio×1000 milli-tokens
// (capped), each hedge spends 1000.
type hedgeBudget struct {
	milli     atomic.Int64
	earnMilli int64
	capMilli  int64
}

func newHedgeBudget(ratio float64) *hedgeBudget {
	return &hedgeBudget{earnMilli: int64(ratio * 1000), capMilli: 10_000}
}

func (b *hedgeBudget) earn() {
	for {
		cur := b.milli.Load()
		next := cur + b.earnMilli
		if next > b.capMilli {
			next = b.capMilli
		}
		if next == cur || b.milli.CompareAndSwap(cur, next) {
			return
		}
	}
}

func (b *hedgeBudget) take() bool {
	for {
		cur := b.milli.Load()
		if cur < 1000 {
			return false
		}
		if b.milli.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}
