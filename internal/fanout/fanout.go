// Package fanout runs one function over the indexes of a batch on a
// bounded set of goroutines. It is the batch fan-out every layer shares:
// the kernel's sim.RunBatch, the Local session, the replica's batch
// handler and the router's scatter all hand their per-item work to Each,
// and keep only what differs between them — what an item is, and how its
// failure is reported.
package fanout

import (
	"context"
	"sync"
	"sync/atomic"
)

// Each calls do(ctx, i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 means one), handing out indexes in ascending
// order, and returns once every call has returned. Slot i of the result
// holds the error of index i.
//
// With cancelOnError, the first failing call cancels the context every
// call runs under, so in-flight calls can abort. An index reached after
// that context is done is not run: do is not called for it, and its slot
// holds the context's error exactly as ctx.Err() returns it —
// context.Canceled or context.DeadlineExceeded, never wrapped. Without
// cancelOnError only the parent ctx stops the batch.
func Each(ctx context.Context, n, workers int, cancelOnError bool, do func(ctx context.Context, i int) error) []error {
	errs := make([]error, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers = min(max(workers, 1), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if errs[i] = do(ctx, i); errs[i] != nil && cancelOnError {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	return errs
}
