// Package service is the simulation-as-a-service layer: a long-running
// HTTP/JSON front end over the compiled-IR simulation kernel, built so that
// steady-state traffic hits the zero-allocation engine-reuse path the
// in-process API already provides. Its wire types are the shared
// request/report surface of halotis/api — the same structs the Local
// backend and the typed client consume — and its errors carry the api
// error-taxonomy codes, so remote callers get errors.Is-matchable
// failures.
//
// Four mechanisms carry the load:
//
//   - A content-addressed LRU circuit cache (cache.go): uploaded netlists
//     are parsed once, compiled once (circ.Compile) and keyed by the stable
//     content hash of the parsed circuit plus library identity, so
//     re-uploads — including whitespace-equivalent variants of the same
//     .bench file — and every subsequent simulate-by-ID request skip
//     recompilation. Concurrent uploads of the same text are collapsed to
//     one compile (singleflight).
//
//   - A bounded LRU result cache (resultcache.go): finished reports keyed
//     by ResultKey (circuit content hash, stimulus content hash, options
//     fingerprint), the key the cluster router's stale-serve store uses
//     too. Simulation is a pure function of that key, so a repeated
//     identical request is answered without a kernel run. A profiled
//     request is never cached: its profile describes its own run. Both
//     caches are internal/lru maps.
//
//   - Per-(circuit, options) engine pools (sim.EnginePool): each cached
//     circuit keeps warm sim.Engine instances per delay-model
//     configuration. A miss runs through internal/run, the run path the
//     Local backend shares: deadline, warm engine, zero-allocation run,
//     report, release.
//
//   - An admission gate (internal/admit) of Workers slots and a backlog of
//     QueueDepth waiters: all compile and simulation work enters it and
//     then runs on the request's own goroutine, so concurrency is capped,
//     overload surfaces as fast 503s instead of collapse, and shutdown
//     waits for admitted jobs. Simulate, upload and a batch's admission
//     step share one path (runJob): enter, run, leave. A full backlog is a
//     503 with a drain-estimate Retry-After; a deadline budget that expires
//     while the job waits or runs is a 504, and a waiter whose client goes
//     away leaves the backlog at once. An admitted batch releases its slot,
//     then fans its runs out with internal/fanout, each run waiting for a
//     slot of its own, instead of pinning one slot for the whole batch.
//
// Bodies are JSON. Simulate and batch requests are decoded, and reports
// and batch responses encoded, by internal/wire, a one-pass codec without
// reflection that accepts exactly what encoding/json accepts and writes
// the bytes json.Marshal writes: keys match field names exactly or under
// Unicode case folding (T_END, ſtimulus), a repeated member decodes as
// encoding/json decodes it, numbers must fit their field, and an unknown
// field is an error. Every other body goes through encoding/json
// (decodeJSON, node.WriteJSON); decodeJSON is also the codec's test
// oracle. On every route, anything but whitespace after the JSON document
// (a stray closing bracket included) is a 400 invalid_request.
//
// Endpoints (see server.go): POST /v1/circuits (upload+compile), GET
// /v1/circuits[/{id}] (list/inspect), DELETE /v1/circuits/{id} (evict),
// POST /v1/simulate and /v1/simulate/batch (run; waveforms, activity,
// power, VCD on request), GET /healthz and GET /metrics.
//
// The fleet-health and tracing endpoints — GET /v1/traces[/{id}], GET
// /v1/status (SLO burn rates), GET /v1/series (in-process time-series) and
// GET /v1/flightrecorder (anomaly flight recorder) — are served by the node
// shell in internal/node, which the cluster router shares; the replica
// hooks its admission and cache series and its drain estimate into them
// (status.go). The shell also owns the tracing and deadline-budget
// middleware and the wire error writer.
package service

import (
	"log/slog"
	"runtime"
	"time"

	"halotis/internal/cellib"
)

// Config parameterizes a Server. The zero value is usable: every field has
// a production-minded default.
type Config struct {
	// Lib is the cell library circuits are elaborated onto. Default: the
	// 0.6 µm library (cellib.Default06).
	Lib *cellib.Library
	// ReplicaID is the daemon's identity within a cluster (halotisd -id).
	// When set, responses carry it (CircuitInfo.Replica, Report.Replica,
	// ErrorResponse.Replica, HealthResponse.Replica) and /metrics labels
	// halotisd_build_info with it, so multi-node sweeps can attribute
	// work per node. Empty (the default) omits it everywhere.
	ReplicaID string
	// Workers is the number of compile and simulation jobs that run at
	// once: the admission gate's slots. Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds the jobs waiting for a slot; a job past it is
	// refused at once with 503. Default: 4x Workers.
	QueueDepth int
	// CacheSize bounds the compiled-circuit cache (LRU eviction).
	// Default 64.
	CacheSize int
	// ResultCacheSize bounds the result cache: finished reports keyed by
	// (circuit hash, stimulus hash, options fingerprint), so repeating an
	// identical simulate request is answered without a kernel run.
	// Default 1024; negative disables result caching.
	ResultCacheSize int
	// EnginePoolSize bounds the free engines retained per (circuit,
	// options) pool. Default: Workers.
	EnginePoolSize int
	// MaxBodyBytes bounds request bodies. Default 8 MiB.
	MaxBodyBytes int64
	// MaxTimeout is the ceiling on any single request's run time, counted
	// from the start of the run: it caps client-supplied timeout_ms and
	// applies as the deadline when a request omits one, so no run can
	// hold a slot longer than the operator allows. 0 means uncapped.
	MaxTimeout time.Duration
	// MaxEvents caps the per-request max_events clients may ask for (the
	// kernel's oscillation guard, i.e. the bound on how long one request
	// can hold a slot); 0 means uncapped beyond the engine default.
	MaxEvents uint64
	// Logger receives the server's structured request and error logs,
	// stamped with trace IDs when the request was traced. Default: a
	// discard logger, so embedding the service costs no log formatting
	// unless the operator opts in (halotisd -log-level/-log-format).
	Logger *slog.Logger
	// TraceCapacity bounds the in-memory trace ring served by GET
	// /v1/traces: the newest TraceCapacity traces are retained. Default
	// obs.DefaultTraceCapacity (256).
	TraceCapacity int
	// SLOTargetP99 is the latency objective: API requests slower than it
	// count against the error budget in /v1/status burn rates (halotisd
	// -slo-p99-ms). Default 500ms.
	SLOTargetP99 time.Duration
	// SLOTargetAvailability is the availability objective in (0, 1): the
	// target fraction of API requests that are neither server errors nor
	// slower than SLOTargetP99 (halotisd -slo-availability). Default 0.999.
	SLOTargetAvailability float64
	// SeriesResolution is the window size of the in-process time-series
	// ring served by GET /v1/series. Default tsdb.DefaultResolution (10s).
	SeriesResolution time.Duration
	// SeriesWindows is the ring's window count (SeriesResolution ×
	// SeriesWindows of history). Default tsdb.DefaultWindows (360, one
	// hour at the default resolution); negative disables the sampler and
	// the series/status endpoints it feeds.
	SeriesWindows int
	// FlightCapacity bounds the flight-recorder ring served by GET
	// /v1/flightrecorder. Default flight.DefaultCapacity (4096); negative
	// disables flight recording and the self-tracing it performs.
	FlightCapacity int
}

func (c *Config) setDefaults() {
	if c.Lib == nil {
		c.Lib = cellib.Default06()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	switch {
	case c.ResultCacheSize == 0:
		c.ResultCacheSize = 1024
	case c.ResultCacheSize < 0:
		c.ResultCacheSize = 0 // disabled
	}
	if c.EnginePoolSize <= 0 {
		c.EnginePoolSize = c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
}
