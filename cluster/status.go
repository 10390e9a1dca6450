package cluster

// The router's part of the fleet-health surface. The node shell
// (internal/node) gives the router the same sampler, SLO windows, flight
// recorder and /v1/status, /v1/series, /v1/flightrecorder endpoints as a
// replica; the router adds its routing rates — hedges, failovers,
// degraded serves — and a rollup loop that pulls every replica's
// /v1/status to merge the cluster view: replica availability, queue
// pressure, drain estimates, per-replica served share. The router
// measures the SLO where the user experiences it: routed latency includes
// failover, hedging and replica round trips.

import (
	"context"
	"time"

	"halotis/api"
	"halotis/internal/fanout"
	"halotis/internal/node"
)

// SLOPolicy tunes the router's service-level objective and the
// observability stores that track it.
type SLOPolicy struct {
	// TargetP99 is the latency objective: a routed request slower than
	// this is SLO-bad (default 500ms).
	TargetP99 time.Duration
	// TargetAvailability is the success objective in (0, 1) the burn-rate
	// windows are evaluated against (default 0.999).
	TargetAvailability float64
	// RollupInterval is how often the router pulls every replica's
	// /v1/status for the fleet view (default 5s).
	RollupInterval time.Duration
	// SeriesResolution is the time-series window width (default 10s).
	SeriesResolution time.Duration
	// SeriesWindows is how many windows the series ring retains (default
	// 360). Negative disables sampling, /v1/series and /v1/status.
	SeriesWindows int
	// FlightCapacity bounds the flight-recorder ring (default 4096).
	// Negative disables the recorder and /v1/flightrecorder.
	FlightCapacity int
}

// WithSLO sets the router's SLO targets and observability store sizes.
// The zero policy gets defaults (p99 500ms, availability 99.9%).
func WithSLO(p SLOPolicy) Option { return func(c *config) { c.slo = p } }

// Router-only series, written by sample and read back by status.
const (
	seriesHedgesPerSec    = "hedges_per_second"
	seriesFailoversPerSec = "failovers_per_second"
	seriesDegradedPerSec  = "degraded_per_second"
)

// sample writes the router's own series on every sampler tick.
func (c *Cluster) sample(smp *node.Sampler) {
	smp.Rate(seriesHedgesPerSec, c.met.hedges.Load())
	smp.Rate(seriesFailoversPerSec, c.met.failovers.Load())
	smp.Rate(seriesDegradedPerSec, c.met.degradedServes.Load())
	smp.Set("replicas_healthy", float64(c.healthyReplicas()))
}

// rollupLoop refreshes the fleet rollup every RollupInterval until Close.
func (c *Cluster) rollupLoop() {
	defer c.wg.Done()
	roll := time.NewTicker(c.rollupEvery)
	defer roll.Stop()
	c.RollupNow()
	for {
		select {
		case <-c.stop:
			return
		case <-roll.C:
			c.RollupNow()
		}
	}
}

// fleetRollup is one pull of the replicas' /v1/status, merged.
type fleetRollup struct {
	replicas []api.ReplicaStatusSummary
	// queueDepth sums the fleet's queued jobs; drainMs is the worst
	// replica's drain estimate — the honest Retry-After for the cluster.
	queueDepth int
	drainMs    float64
	anyFiring  bool
}

// RollupNow pulls every replica's /v1/status once, concurrently, and
// installs the merged fleet view /v1/status serves. The background loop
// calls it on RollupInterval; tests and operators call it for an
// immediate refresh.
func (c *Cluster) RollupNow() {
	timeout := min(c.rollupEvery, 2*time.Second)
	summaries := make([]api.ReplicaStatusSummary, len(c.replicas))
	fanout.Each(context.Background(), len(c.replicas), len(c.replicas), false, func(ctx context.Context, i int) error {
		r := c.replicas[i]
		sum := api.ReplicaStatusSummary{
			ID:           r.id,
			Addr:         r.addr,
			Healthy:      r.healthy(),
			BreakerState: r.br.state().String(),
		}
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		if st, err := r.c.Status(ctx); err == nil {
			sum.Availability = 1
			if n := len(st.Windows); n > 0 {
				// The slow (full-ring) window is the replica's overall
				// availability; the fast one only decides firing.
				sum.Availability = st.Windows[n-1].Availability
			}
			sum.P99Ms = st.P99Ms
			sum.QueueDepth = st.QueueDepth
			sum.QueueDrainEstimateMs = st.QueueDrainEstimateMs
			sum.Firing = st.Status == "firing"
			sum.ExemplarTraceIDs = st.Exemplars
		}
		summaries[i] = sum
		return nil
	})

	var roll fleetRollup
	var served, total uint64
	for _, r := range c.replicas {
		total += r.served.Load()
	}
	for i, r := range c.replicas {
		if total > 0 {
			served = r.served.Load()
			summaries[i].ServedShare = float64(served) / float64(total)
		}
		roll.queueDepth += summaries[i].QueueDepth
		if summaries[i].QueueDrainEstimateMs > roll.drainMs {
			roll.drainMs = summaries[i].QueueDrainEstimateMs
		}
		if summaries[i].Firing {
			roll.anyFiring = true
		}
	}
	roll.replicas = summaries
	c.rollup.Store(&roll)
}

// status adds the fleet view to the router's /v1/status: breaker counts,
// routing rates, and the latest replica rollup. A replica-local breach
// that the router's own windows do not confirm escalates "ok" to "warn".
func (c *Cluster) status(resp *api.StatusResponse) {
	resp.ReplicasTotal = len(c.replicas)
	for _, rep := range c.replicas {
		switch rep.br.state() {
		case BreakerClosed:
			resp.ReplicasHealthy++
		case BreakerOpen:
			resp.BreakersOpen++
		}
	}
	resp.HedgesPerSecond = c.node.Latest(seriesHedgesPerSec)
	resp.FailoversPerSecond = c.node.Latest(seriesFailoversPerSec)
	resp.DegradedPerSecond = c.node.Latest(seriesDegradedPerSec)
	if roll := c.rollup.Load(); roll != nil {
		resp.Replicas = roll.replicas
		resp.QueueDepth = roll.queueDepth
		resp.QueueDrainEstimateMs = roll.drainMs
		if roll.anyFiring && resp.Status == "ok" {
			resp.Status = "warn"
		}
	}
}
