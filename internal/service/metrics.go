package service

import (
	"fmt"
	"sync/atomic"
	"time"

	"halotis/internal/buildinfo"
	"halotis/internal/node"
	"halotis/internal/obs"
)

// metrics aggregates the daemon's counters; everything is atomic so the
// hot path never takes a lock for accounting.
type metrics struct {
	simRuns   atomic.Uint64
	simErrors atomic.Uint64
	simEvents atomic.Uint64
	simBusyNs atomic.Int64

	// Latency distributions (seconds): time a job waited for an
	// admission slot, and wall time inside the kernel. Per-endpoint request
	// latency is the node shell's.
	queueWait *obs.Histogram
	kernelRun *obs.Histogram
}

// init builds the histogram storage; the struct is embedded in Server, so
// the pointers cannot be set at literal-construction time.
func (m *metrics) init() {
	m.queueWait = obs.NewHistogram(obs.LatencyBuckets()...)
	m.kernelRun = obs.NewHistogram(obs.LatencyBuckets()...)
}

// recordRun accounts one kernel run, successful or not; its events stream in from the engine.
func (m *metrics) recordRun(busy time.Duration, err error) {
	m.simRuns.Add(1)
	m.simBusyNs.Add(busy.Nanoseconds())
	if err != nil {
		m.simErrors.Add(1)
	}
}

// writeMetrics renders the replica's own /metrics families; the node
// shell adds the per-endpoint, trace, flight-recorder and runtime ones.
func (s *Server) writeMetrics(m node.Metrics) {
	version, rev, goVersion := buildinfo.Info()
	fmt.Fprintf(m, "# HELP halotisd_build_info Build and identity of this daemon; the replica label attributes multi-node sweeps per node.\n"+
		"# TYPE halotisd_build_info gauge\n"+
		"halotisd_build_info{version=%q,revision=%q,go=%q,replica=%q} 1\n",
		version, rev, goVersion, s.cfg.ReplicaID)

	met := &s.met
	m.Counter("sim_runs_total", met.simRuns.Load(), "Simulation kernel runs executed.")
	m.Counter("sim_errors_total", met.simErrors.Load(), "Simulation runs that ended in error.")
	m.Counter("sim_events_total", met.simEvents.Load(), "Kernel events processed across all runs.")
	busyS := float64(met.simBusyNs.Load()) / 1e9
	m.CounterFloat("sim_busy_seconds_total", busyS, "Wall time spent inside the simulation kernel.")
	rate := 0.0
	if busyS > 0 {
		rate = float64(met.simEvents.Load()) / busyS
	}
	m.Gauge("sim_events_per_second", rate, "Kernel throughput: events processed per busy second.")

	cache := s.cache.Stats()
	m.Gauge("cache_entries", float64(cache.Entries), "Circuits in the compiled-circuit cache.")
	m.Counter("cache_hits_total", cache.Hits, "Cache lookups that found a compiled circuit.")
	m.Counter("cache_misses_total", cache.Misses, "Cache lookups that did not.")
	m.Counter("cache_not_found_total", cache.NotFound, "Lookups of unknown or evicted circuit IDs (excluded from the hit rate).")
	m.Counter("cache_compiles_total", cache.Compiles, "Parse+compile executions.")
	m.Counter("cache_evictions_total", cache.Evictions, "LRU evictions.")
	m.Gauge("cache_hit_rate", cache.HitRate(), "Hits / (hits + misses).")
	m.Counter("engines_created_total", cache.EnginesCreated, "Simulation engines constructed across all pools.")

	results := s.results.Stats()
	m.Gauge("result_cache_entries", float64(results.Entries), "Reports in the result cache.")
	m.Counter("result_cache_hits_total", results.Hits, "Requests answered from the result cache without a kernel run.")
	m.Counter("result_cache_misses_total", results.Misses, "Requests whose (circuit, stimulus, options) key was not cached.")
	m.Counter("result_cache_evictions_total", results.Evictions, "Result-cache LRU evictions.")
	m.Gauge("result_cache_hit_rate", results.HitRate(), "Result-cache hits / (hits + misses).")

	queue := s.gate.Stats()
	m.Gauge("queue_depth", float64(queue.Depth), "Jobs waiting for an admission slot.")
	m.Gauge("queue_capacity", float64(s.cfg.QueueDepth), "Bound of the admission backlog.")
	m.Gauge("queue_workers", float64(s.cfg.Workers), "Admission slots: jobs that may run at once.")
	m.Counter("queue_executed_total", queue.Executed, "Jobs executed to completion.")
	m.Counter("queue_rejected_total", queue.Rejected, "Jobs rejected because the admission backlog was full.")
	m.Counter("queue_expired_total", queue.Expired, "Jobs dropped because their context died before they held a slot.")
	m.Gauge("queue_in_flight", float64(queue.InFlight), "Admission slots held by executing jobs.")
	m.Gauge("queue_peak_in_flight", float64(queue.PeakInFlight), "High-water mark of concurrently executing jobs.")

	met.queueWait.Write(m, "halotisd_queue_wait_seconds", "Time jobs waited for an admission slot, seconds.")
	met.kernelRun.Write(m, "halotisd_kernel_run_seconds", "Wall time of individual kernel runs, seconds.")
}
