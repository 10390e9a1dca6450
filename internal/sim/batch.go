package sim

import (
	"context"
	"fmt"
	"runtime"

	"halotis/internal/circ"
	"halotis/internal/fanout"
	"halotis/internal/netlist"
)

// RunBatch simulates every stimulus against the same circuit until tEnd and
// returns one detached Result per stimulus, in stimulus order.
//
// The circuit is compiled once (see circ.Compile); the runs draw reusable
// engines from one EnginePool over the shared read-only IR, so the per-run
// cost is the kernel's event loop alone. Because every run starts from a
// full Reset, results are bit-identical to single-shot Simulate of the same
// stimulus regardless of worker count or scheduling — parallelism changes
// only the wall-clock time. opt.Workers bounds the goroutine count (<= 0
// means GOMAXPROCS).
//
// A failed run does not cancel its siblings. On error the first failure
// (by stimulus index) is returned together with the results of every run
// that finished. opt.Ctx, when non-nil, cancels the batch: in-flight runs
// abort at event-pop granularity and no further stimulus is started.
func RunBatch(ckt *netlist.Circuit, stimuli []Stimulus, tEnd float64, opt Options) ([]*Result, error) {
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := NewEnginePool(circ.Compile(ckt), workers, nil)
	key := opt.PoolKey()
	results := make([]*Result, len(stimuli))
	errs := fanout.Each(ctx, len(stimuli), workers, false, func(ctx context.Context, i int) error {
		eng := pool.Acquire(key)
		defer pool.Release(key, eng)
		eng.SetProfiling(opt.Profile)
		res, err := eng.RunContext(ctx, stimuli[i], tEnd)
		if err != nil {
			return err
		}
		results[i] = res.Detach()
		return nil
	})
	for i, err := range errs {
		if err == nil {
			continue
		}
		if err == ctx.Err() { // fanout.Each leaves a never-started slot's context error bare
			err = fmt.Errorf("sim: batch aborted before stimulus started: %w", err)
		}
		return results, fmt.Errorf("sim: batch stimulus %d: %w", i, err)
	}
	return results, nil
}
