// Package run is the one path from a prepared request to its report, which
// the Local session and the replica share.
package run

import (
	"context"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"halotis/api"
	"halotis/internal/obs"
	"halotis/internal/sim"
)

// Report runs req on an engine from pool and builds its report: st is the
// stimulus req.Prepare returned, key picks the pool's engines, circuitID
// names the circuit, and progress, when non-nil, counts the run's events
// as they happen. The run's deadline starts here, after any admission
// wait: req.TimeoutMs, capped by maxTimeout when that is positive, which
// also applies when TimeoutMs is 0. A traced ctx records the spans
// engine.acquire, kernel.run (with its events) and report.build. The
// report is built while the result still aliases the engine, then the
// engine goes back to the pool; a run failure returns through
// api.MapRunError.
func Report(ctx context.Context, pool *sim.EnginePool, key sim.PoolKey, circuitID string, st sim.Stimulus, req *api.Request, progress *atomic.Uint64, maxTimeout time.Duration) (*api.Report, error) {
	if d := timeout(req.TimeoutMs, maxTimeout); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	_, sp := obs.Start(ctx, "engine.acquire")
	eng := pool.Acquire(key)
	sp.End()
	defer pool.Release(key, eng)
	eng.SetProfiling(req.Profile)
	eng.SetProgress(progress)

	_, sp = obs.Start(ctx, "kernel.run")
	res, err := eng.RunContext(ctx, st, req.TEnd)
	if err != nil {
		sp.Fail(err)
		sp.End()
		return nil, api.MapRunError(err)
	}
	if sp != nil {
		sp.SetAttr("events", strconv.FormatUint(res.Stats.EventsProcessed, 10))
		sp.End()
	}

	_, sp = obs.Start(ctx, "report.build")
	rep := api.BuildReport(pool.IR(), circuitID, res, req)
	sp.End()
	return rep, nil
}

// timeout is a run's deadline: timeoutMs milliseconds, saturating instead
// of overflowing time.Duration, capped by maxTimeout when that is positive
// (and maxTimeout itself when timeoutMs is 0). 0 means no deadline.
func timeout(timeoutMs float64, maxTimeout time.Duration) time.Duration {
	var d time.Duration
	switch ns := timeoutMs * float64(time.Millisecond); {
	case ns >= float64(math.MaxInt64):
		d = math.MaxInt64
	case ns > 0:
		d = time.Duration(ns)
	}
	if maxTimeout > 0 && (d == 0 || d > maxTimeout) {
		d = maxTimeout
	}
	return d
}
