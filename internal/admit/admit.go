// Package admit is the one admission gate: it bounds the work in flight and
// refuses the rest fast. The replica's jobs and the Local backend's
// concurrency bound are both built on it.
//
// A Gate has N slots and a backlog of depth D. A caller takes a slot, or
// waits while fewer than D others wait; past that it is refused at once.
// The admitted job runs on the caller's own goroutine, and the caller
// leaves the gate when the job is done.
package admit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

var (
	// ErrFull is Enter's refusal when every slot is held and the backlog
	// is at its depth.
	ErrFull = errors.New("admit: backlog full")
	// ErrClosed refuses every caller once Close has begun.
	ErrClosed = errors.New("admit: shutting down")
)

// Gate is a bounded set of slots with a bounded backlog of waiting callers.
// It is safe for concurrent use.
type Gate struct {
	slots chan struct{} // one element per held slot
	depth int64

	mu     sync.RWMutex // orders admission against Close
	closed bool
	wg     sync.WaitGroup // admitted callers, waiting or holding a slot

	waiting, inFlight, peak     atomic.Int64
	executed, rejected, expired atomic.Uint64
}

// New returns a gate of slots slots (at least one) and a backlog of depth
// waiting callers; depth 0 refuses every caller that finds the slots held.
func New(slots, depth int) *Gate {
	return &Gate{slots: make(chan struct{}, max(slots, 1)), depth: int64(depth)}
}

// Enter takes a slot for the caller, waiting in the backlog while every
// slot is held. It returns ErrFull at once when the backlog is at its
// depth, ErrClosed once Close has begun, and ctx.Err() when ctx dies
// before the caller holds a slot: a waiter leaves the backlog as soon as
// its context dies, and a context already dead when its slot comes is shed
// instead of run. After a nil error the caller holds a slot and must call
// Leave.
func (g *Gate) Enter(ctx context.Context) error { return g.enter(ctx, true) }

// EnterWait is Enter without the depth bound: the caller waits for a slot
// however many others wait. It serves work already admitted through Enter
// that must not be dropped midway, such as a batch's runs.
func (g *Gate) EnterWait(ctx context.Context) error { return g.enter(ctx, false) }

func (g *Gate) enter(ctx context.Context, bounded bool) error {
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return ErrClosed
	}
	g.wg.Add(1)
	g.mu.RUnlock()
	if err := g.take(ctx, bounded); err != nil {
		g.wg.Done()
		return err
	}
	cur := g.inFlight.Add(1)
	for p := g.peak.Load(); cur > p && !g.peak.CompareAndSwap(p, cur); p = g.peak.Load() {
	}
	return nil
}

func (g *Gate) take(ctx context.Context, bounded bool) error {
	select {
	case g.slots <- struct{}{}:
	default:
		if w := g.waiting.Add(1); bounded && w > g.depth {
			g.waiting.Add(-1)
			g.rejected.Add(1)
			return ErrFull
		}
		select {
		case g.slots <- struct{}{}:
			g.waiting.Add(-1)
		case <-ctx.Done():
			g.waiting.Add(-1)
			g.expired.Add(1)
			return ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		<-g.slots
		g.expired.Add(1)
		return err
	}
	return nil
}

// Leave releases the caller's slot to a waiting caller, if any. Call it
// once for every nil return of Enter or EnterWait.
func (g *Gate) Leave() {
	g.inFlight.Add(-1)
	g.executed.Add(1)
	<-g.slots
	g.wg.Done()
}

// Close refuses new callers and returns once every admitted caller,
// waiting or holding a slot, has left; waiting callers still get their
// slots. It is idempotent.
func (g *Gate) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.wg.Wait()
}

// Stats is a gate's counter snapshot.
type Stats struct {
	Depth        int    // callers waiting for a slot
	InFlight     int64  // slots held
	PeakInFlight int64  // high-water mark of InFlight
	Executed     uint64 // callers that held a slot and left
	Rejected     uint64 // callers Enter refused with ErrFull
	Expired      uint64 // callers whose context died before they held a slot
}

// Stats snapshots the gate's counters.
func (g *Gate) Stats() Stats {
	return Stats{
		Depth:        int(g.waiting.Load()),
		InFlight:     g.inFlight.Load(),
		PeakInFlight: g.peak.Load(),
		Executed:     g.executed.Load(),
		Rejected:     g.rejected.Load(),
		Expired:      g.expired.Load(),
	}
}
