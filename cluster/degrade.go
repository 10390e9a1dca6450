package cluster

// Graceful degradation. Two mechanisms:
//
//   - Partial batches: with BatchOptions.AllowPartial, scatterBatch
//     (failover.go) no longer fails a batch as a unit — every request runs
//     to its own outcome and failures come back per-slot, so one poisoned
//     stimulus or one unlucky chunk does not discard thousands of finished
//     reports. The router answers with service.BatchResponseOf, the same
//     response builder the replica uses.
//   - Stale reads (Cluster.results): the router remembers recent reports
//     by service.ResultKey, the replicas' result-cache key, so a profiled
//     request is never stored. When every replica holding a circuit is
//     unreachable, a stored report is served marked Cached and Degraded
//     instead of a 502 — simulations are deterministic, so "stale"
//     differs from "fresh" only in the Replica attribution.

// The router's bounds. They are constants, not Options: no caller sets
// them.
const (
	resultCacheCap = 256     // reports kept for degraded serves
	textCap        = 256     // netlist texts kept for upload-on-miss repair
	maxBody        = 8 << 20 // largest request body the router reads, bytes
)
