package cluster

import (
	"fmt"
	"sync/atomic"

	"halotis/internal/buildinfo"
	"halotis/internal/node"
)

// routerMetrics aggregates the routing layer's counters. Per-replica state
// (health, served requests, failures) lives on the replicas themselves and
// is read live at exposition time; these are the cluster-wide ones.
type routerMetrics struct {
	// failovers counts advances to a lower-ranked candidate after an
	// availability failure — the cluster-smoke assertion that failover
	// actually happened reads this.
	failovers atomic.Uint64
	// reuploads counts upload-on-miss repairs: a replica answered
	// ErrCircuitNotFound and the stored serialized netlist restored it.
	reuploads atomic.Uint64
	// hedges / hedgeWins count hedged reads fired and hedges whose second
	// attempt answered first.
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64
	// breakerSkips counts candidates skipped because their breaker refused
	// admission; breakerOpens / breakerCloses count breaker transitions
	// into the open and closed states.
	breakerSkips  atomic.Uint64
	breakerOpens  atomic.Uint64
	breakerCloses atomic.Uint64
	// degradedServes counts simulate responses served stale from the
	// router's result cache because every holder was unreachable.
	degradedServes atomic.Uint64
}

// writeMetrics renders the router's own /metrics families — routing
// counters and per-replica state; the node shell adds the per-endpoint,
// trace, flight-recorder and runtime ones. The replica label on
// per-replica series matches the halotisd -id each node exports in its
// own halotisd_build_info, so a sweep can join router-side and node-side
// views.
func (c *Cluster) writeMetrics(m node.Metrics) {
	version, rev, goVersion := buildinfo.Info()
	fmt.Fprintf(m, "# HELP halotisd_router_build_info Build of this cluster router.\n"+
		"# TYPE halotisd_router_build_info gauge\n"+
		"halotisd_router_build_info{version=%q,revision=%q,go=%q} 1\n",
		version, rev, goVersion)

	m.Gauge("replication", float64(c.rf), "Replication factor: circuits are placed on the top-R ranked replicas.")
	met := &c.met
	m.Counter("failovers_total", met.failovers.Load(), "Requests moved to a lower-ranked replica after an availability failure.")
	m.Counter("reuploads_total", met.reuploads.Load(), "Upload-on-miss repairs of circuits onto failover targets.")
	m.Counter("hedges_total", met.hedges.Load(), "Hedged reads fired after the primary exceeded its tail-latency estimate.")
	m.Counter("hedge_wins_total", met.hedgeWins.Load(), "Hedged reads whose second attempt answered first.")
	m.Counter("breaker_skips_total", met.breakerSkips.Load(), "Candidate replicas skipped because their breaker refused admission.")
	m.Counter("breaker_opens_total", met.breakerOpens.Load(), "Breaker transitions into the open state.")
	m.Counter("breaker_closes_total", met.breakerCloses.Load(), "Breaker transitions into the closed state.")
	m.Counter("degraded_serves_total", met.degradedServes.Load(), "Simulate responses served stale from the result cache with every holder unreachable.")

	m.Gauge("replicas", float64(len(c.replicas)), "Configured replicas.")
	m.Gauge("replicas_healthy", float64(c.healthyReplicas()), "Replicas currently considered healthy.")

	fmt.Fprintf(m, "# HELP halotisd_router_replica_healthy Health of each replica (1 healthy, 0 down).\n# TYPE halotisd_router_replica_healthy gauge\n")
	for _, r := range c.replicas {
		v := 0
		if r.healthy() {
			v = 1
		}
		fmt.Fprintf(m, "halotisd_router_replica_healthy{replica=%q} %d\n", r.id, v)
	}
	fmt.Fprintf(m, "# HELP halotisd_router_replica_breaker_state Circuit-breaker state per replica (0 closed, 1 half-open, 2 open).\n# TYPE halotisd_router_replica_breaker_state gauge\n")
	for _, r := range c.replicas {
		fmt.Fprintf(m, "halotisd_router_replica_breaker_state{replica=%q} %d\n", r.id, int(r.br.state()))
	}
	fmt.Fprintf(m, "# HELP halotisd_router_replica_state_changes_total Breaker state transitions per replica.\n# TYPE halotisd_router_replica_state_changes_total counter\n")
	for _, r := range c.replicas {
		fmt.Fprintf(m, "halotisd_router_replica_state_changes_total{replica=%q} %d\n", r.id, r.stateChanges.Load())
	}
	fmt.Fprintf(m, "# HELP halotisd_router_replica_requests_total Requests each replica answered successfully.\n# TYPE halotisd_router_replica_requests_total counter\n")
	for _, r := range c.replicas {
		fmt.Fprintf(m, "halotisd_router_replica_requests_total{replica=%q} %d\n", r.id, r.served.Load())
	}
	fmt.Fprintf(m, "# HELP halotisd_router_replica_failures_total Transport-level failures observed per replica.\n# TYPE halotisd_router_replica_failures_total counter\n")
	for _, r := range c.replicas {
		fmt.Fprintf(m, "halotisd_router_replica_failures_total{replica=%q} %d\n", r.id, r.failures.Load())
	}
}

// healthyReplicas counts the replicas whose breaker is closed.
func (c *Cluster) healthyReplicas() int {
	healthy := 0
	for _, r := range c.replicas {
		if r.healthy() {
			healthy++
		}
	}
	return healthy
}
