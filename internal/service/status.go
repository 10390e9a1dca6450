package service

// The replica's part of the fleet-health surface. The node shell
// (internal/node) samples the shared series, keeps the SLO windows and the
// flight recorder, and serves /v1/status, /v1/series and
// /v1/flightrecorder; the replica adds kernel throughput, queue pressure
// and cache effectiveness to the series ring, and its queue-drain estimate
// to /v1/status and to the Retry-After hint of every 503.

import (
	"time"

	"halotis/api"
	"halotis/internal/node"
)

// drainEstimate predicts how long the current queue needs to drain at the
// observed service rate: average kernel-run wall time × queue depth ÷
// slots, floored at one average run (full slots still finish the
// in-flight work). Before any run completes, a conservative prior stands
// in. This is what 503s stamp into Retry-After and /v1/status exposes.
func (s *Server) drainEstimate() time.Duration {
	avg := 25 * time.Millisecond // prior before the first completed run
	if runs := s.met.simRuns.Load(); runs > 0 {
		avg = time.Duration(s.met.simBusyNs.Load() / int64(runs))
		if avg < time.Millisecond {
			avg = time.Millisecond
		}
	}
	est := avg * time.Duration(s.gate.Stats().Depth+1) / time.Duration(s.cfg.Workers)
	if est < avg {
		est = avg
	}
	return est
}

// retryAfterHint clamps a drain estimate to the wire contract's hint
// range: at least 1s (clients must not hammer a refusing daemon
// sub-second) and at most 60s. /v1/status carries the unclamped estimate.
func retryAfterHint(est time.Duration) time.Duration {
	return min(max(est, time.Second), time.Minute)
}

// sample writes the replica's own series on every sampler tick.
func (s *Server) sample(smp *node.Sampler) {
	smp.Rate("kernel_events_per_second", s.met.simEvents.Load())
	smp.Set("queue_depth", float64(s.gate.Stats().Depth))
	smp.Set("queue_drain_estimate_ms", float64(s.drainEstimate())/float64(time.Millisecond))
	smp.Set("cache_hit_rate", s.cache.Stats().HitRate())
	smp.Set("result_cache_hit_rate", s.results.Stats().HitRate())
}

// status adds the replica's queue pressure to /v1/status.
func (s *Server) status(resp *api.StatusResponse) {
	resp.QueueDepth = s.gate.Stats().Depth
	resp.QueueDrainEstimateMs = float64(s.drainEstimate()) / float64(time.Millisecond)
}
