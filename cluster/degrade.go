package cluster

// Graceful degradation. Two mechanisms:
//
//   - Partial batches: with BatchOptions.AllowPartial, scatterBatch
//     (failover.go) no longer fails a batch as a unit — every request runs
//     to its own outcome and failures come back per-slot, so one poisoned
//     stimulus or one unlucky chunk does not discard thousands of finished
//     reports. The router answers with service.BatchResponseOf, the same
//     response builder the replica uses.
//   - Stale reads (Cluster.results): the router remembers the bodies of
//     recent reports, the bytes it relayed, by service.ResultKey, the
//     replicas' result-cache key, so a profiled request is never stored.
//     When every replica holding a circuit is unreachable, a stored body is
//     decoded and served marked Cached and Degraded instead of a 502 —
//     simulations are deterministic, so "stale" differs from "fresh" only
//     in the Replica attribution and the trace ID. Only this rare path
//     decodes a report; a fresh one is relayed unread.

import (
	"context"

	"halotis/api"
	"halotis/internal/obs"
	"halotis/internal/obs/flight"
	"halotis/internal/wire"
)

// The router's bounds. They are constants, not Options: no caller sets
// them.
const (
	resultCacheCap = 256     // reports kept for degraded serves
	textCap        = 256     // netlist texts kept for upload-on-miss repair
	maxBody        = 8 << 20 // largest request body the router reads, bytes
)

// stale returns the report stored under key, marked as a degraded serve of
// the request in ctx: Cached, Degraded and that request's trace ID. It
// counts the serve and files it on the request's flight note.
func (c *Cluster) stale(ctx context.Context, key string) (*api.Report, bool) {
	data, ok := c.results.Get(key)
	if !ok {
		return nil, false
	}
	var rep api.Report
	if wire.DecodeReport(data, &rep) != nil { // a replica's 200 body; cannot fail
		return nil, false
	}
	rep.Cached, rep.Degraded = true, true
	rep.TraceID, _, _ = obs.ContextTrace(ctx)
	c.met.degradedServes.Add(1)
	if n := flight.NoteFrom(ctx); n != nil {
		n.Degraded = true
		n.Cached = true
	}
	return &rep, true
}
