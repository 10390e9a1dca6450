package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrQueueFull is returned by SubmitTask when the bounded job queue is at
// capacity; callers surface it as 503 with Retry-After.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by SubmitTask and SubmitWaitTask once shutdown has
// begun.
var ErrClosed = errors.New("service: shutting down")

// task is one unit of queued work. Its ctx arms shed-at-dequeue: a task
// whose ctx is already dead when a worker picks it up is dropped without
// running (the deadline passed while it sat in the backlog, so executing
// it would burn a worker on an answer nobody is waiting for); the expired
// callback, if any, receives the ctx error instead.
type task struct {
	ctx     context.Context
	run     func()
	expired func(error)
}

// workerPool is the bounded job queue and its workers: all CPU-heavy work
// (compiles, simulation runs) is admitted through SubmitTask, so
// concurrency is capped at the worker count, backlog at the queue depth,
// and overload fails fast instead of stacking goroutines.
type workerPool struct {
	mu     sync.RWMutex
	closed bool
	jobs   chan task
	wg     sync.WaitGroup

	workers  int
	executed atomic.Uint64
	rejected atomic.Uint64
	expired  atomic.Uint64
	inFlight atomic.Int64
	peak     atomic.Int64
}

func newWorkerPool(workers, depth int) *workerPool {
	p := &workerPool{jobs: make(chan task, depth), workers: workers}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.jobs {
				if err := t.ctx.Err(); err != nil {
					p.expired.Add(1)
					if t.expired != nil {
						t.expired(err)
					}
					continue
				}
				cur := p.inFlight.Add(1)
				for {
					peak := p.peak.Load()
					if cur <= peak || p.peak.CompareAndSwap(peak, cur) {
						break
					}
				}
				t.run()
				p.inFlight.Add(-1)
				p.executed.Add(1)
			}
		}()
	}
	return p
}

// SubmitTask enqueues a job for the workers. It never blocks: a full queue
// returns ErrQueueFull, a closing pool ErrClosed. Shed-at-dequeue is armed
// on ctx: if ctx is dead by the time a worker would start the job, run is
// skipped and expired (may be nil) gets the ctx error.
func (p *workerPool) SubmitTask(ctx context.Context, run func(), expired func(error)) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.jobs <- task{ctx: ctx, run: run, expired: expired}:
		return nil
	default:
		p.rejected.Add(1)
		return ErrQueueFull
	}
}

// SubmitWaitTask is SubmitTask blocking until queue space frees up or ctx
// is done, with shed-at-dequeue armed on the same ctx. It exists for
// fan-out callers (the batch handler) that have already passed admission
// control with a nonblocking SubmitTask and must not drop their remaining
// jobs under transient pressure. The caller must not be a worker (a worker
// blocking on its own queue can deadlock the pool); HTTP handler
// goroutines are safe.
func (p *workerPool) SubmitWaitTask(ctx context.Context, run func(), expired func(error)) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.jobs <- task{ctx: ctx, run: run, expired: expired}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops admission and drains: jobs already queued still run to
// completion; Close returns once the workers have finished them all. It is
// idempotent.
func (p *workerPool) Close() {
	p.mu.Lock()
	wasClosed := p.closed
	p.closed = true
	p.mu.Unlock()
	if !wasClosed {
		close(p.jobs)
	}
	p.wg.Wait()
}

// Depth is the current queued-but-unstarted job count.
func (p *workerPool) Depth() int { return len(p.jobs) }

// Capacity is the queue bound.
func (p *workerPool) Capacity() int { return cap(p.jobs) }

// QueueStats is the worker pool's counter snapshot.
type QueueStats struct {
	Workers  int    `json:"workers"`
	Depth    int    `json:"depth"`
	Capacity int    `json:"capacity"`
	Executed uint64 `json:"executed"`
	Rejected uint64 `json:"rejected"`
	// Expired counts jobs dropped at dequeue because their context (the
	// propagated deadline budget) died while they were queued.
	Expired uint64 `json:"expired"`
	// InFlight is the number of jobs currently executing; PeakInFlight is
	// the high-water mark since startup — under a fanned-out batch it
	// reaches past 1, which is how tests distinguish parallel execution
	// from sequential draining.
	InFlight     int64 `json:"in_flight"`
	PeakInFlight int64 `json:"peak_in_flight"`
}

// Stats snapshots the pool counters.
func (p *workerPool) Stats() QueueStats {
	return QueueStats{
		Workers:      p.workers,
		Depth:        p.Depth(),
		Capacity:     p.Capacity(),
		Executed:     p.executed.Load(),
		Rejected:     p.rejected.Load(),
		Expired:      p.expired.Load(),
		InFlight:     p.inFlight.Load(),
		PeakInFlight: p.peak.Load(),
	}
}
