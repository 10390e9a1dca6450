// Package cluster shards the HALOTIS simulation service across many
// halotisd replicas behind one halotis.Backend.
//
// Placement is rendezvous (highest-random-weight) hashing on the circuit's
// content hash (circ.ContentHash): every node — and every client — ranks
// the replicas for a circuit identically, with no coordination, no
// directory service and no stored placement table. Because circuit IDs are
// stable content hashes, placement is machine-independent (a circuit lands
// on the same replicas whoever computes the ranking) and adding or
// removing a replica moves only the circuits whose top rank changed —
// the minimal possible reshuffle.
//
// Each circuit is placed on the top-R replicas of its ranking (the
// replication factor, WithReplication); repeat requests rotate across the
// healthy members of that set, spreading read load and making each
// replica's result cache effective — the cache keys are content-addressed
// and machine-independent, so any replica of the set can serve a repeat
// hit.
//
// Failures are handled at two levels. A background prober hits every
// replica's /healthz on an interval; requests additionally mark a replica
// down the moment a transport-level failure is observed (passive marking).
// A run against an unavailable replica fails over to the next-ranked one,
// and because the backend keeps the serialized netlist of every circuit it
// opened, a failover target that has never seen the circuit is repaired in
// line: ErrCircuitNotFound triggers a content-addressed re-upload and one
// retry. Momentary overload (503 + Retry-After) is absorbed by the typed
// client's bounded retry before failover is even considered.
//
// The same routing core has two faces: cluster.New returns a
// halotis.Backend for in-process callers, and Handler exposes the
// identical wire API as an HTTP router (cmd/halotisd -cluster), so the
// existing CLI and typed client work unchanged against a fleet.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"halotis/api"
	"halotis/client"
	"halotis/internal/cellib"
	"halotis/internal/fanout"
	"halotis/internal/lru"
	"halotis/internal/node"
)

// Cluster routes requests across halotisd replicas by rendezvous hashing
// on circuit content hashes. It implements halotis.Backend (Open) and
// serves the same wire API over HTTP (Handler). Create with New; Close
// stops the health prober.
type Cluster struct {
	replicas []*replica
	rf       int
	lib      *cellib.Library

	probeEvery   time.Duration
	probeTimeout time.Duration

	hedge   HedgePolicy
	hbudget *hedgeBudget

	texts   *lru.Cache[string, *circuitText] // by circuit ID, for upload-on-miss repair
	results *lru.Cache[string, []byte]       // report bodies by service.ResultKey, for degraded serves
	met     routerMetrics
	log     *slog.Logger
	// node is the HTTP shell shared with the replicas: middleware,
	// per-endpoint accounting, SLO windows, series sampler, flight
	// recorder, traces, and the wire writers.
	node *node.Node

	// The fleet rollup (see status.go): the latest merged pull of every
	// replica's /v1/status, refreshed every rollupEvery.
	rollupEvery time.Duration
	rollup      atomic.Pointer[fleetRollup]

	rot atomic.Uint64 // read-spread rotation over a placement set

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// config collects the options New applies.
type config struct {
	replication  int
	probeEvery   time.Duration
	probeTimeout time.Duration
	lib          *cellib.Library
	retry        client.RetryPolicy
	clientOpts   []client.Option
	ids          []string
	breaker      BreakerPolicy
	hedge        HedgePolicy
	listener     func(ReplicaEvent)
	logger       *slog.Logger
	traceCap     int
	slo          SLOPolicy
}

// Option configures New.
type Option func(*config)

// WithReplication sets the replication factor: each circuit is placed on
// the top-R replicas of its rendezvous ranking (default 2, clamped to the
// replica count). R >= 2 spreads read load across the set on repeat
// requests and keeps a warm copy standing by for failover.
func WithReplication(r int) Option { return func(c *config) { c.replication = r } }

// WithProbeInterval sets how often the background prober checks every
// replica's /healthz (default 2s; <= 0 disables active probing, leaving
// only passive failure marking).
func WithProbeInterval(d time.Duration) Option { return func(c *config) { c.probeEvery = d } }

// WithProbeTimeout bounds one health probe (default 2s, never more than
// the probe interval).
func WithProbeTimeout(d time.Duration) Option { return func(c *config) { c.probeTimeout = d } }

// WithLibrary sets the cell library the router parses inline netlists
// onto (default: the 0.6 µm library). It must match the replicas' library
// or content hashes — and therefore placement — would disagree.
func WithLibrary(lib *cellib.Library) Option { return func(c *config) { c.lib = lib } }

// WithRetry sets the per-replica overload retry policy (default: 3
// attempts). The zero RetryPolicy still retries with defaults; disable by
// setting MaxAttempts to 1.
func WithRetry(p client.RetryPolicy) Option { return func(c *config) { c.retry = p } }

// WithClientOptions appends options to every per-replica typed client
// (timeouts, transports, test doubles).
func WithClientOptions(opts ...client.Option) Option {
	return func(c *config) { c.clientOpts = append(c.clientOpts, opts...) }
}

// WithReplicaIDs names the replicas for rendezvous hashing and metrics
// labels, position-matched to New's address list (default: the addresses
// themselves). Stable names keep placement stable when a replica moves to
// a new address.
func WithReplicaIDs(ids ...string) Option { return func(c *config) { c.ids = ids } }

// WithBreakerPolicy tunes the per-replica circuit breakers (see
// BreakerPolicy). The zero policy gets defaults: threshold 1, cooldown 2s.
func WithBreakerPolicy(p BreakerPolicy) Option { return func(c *config) { c.breaker = p } }

// WithHedgePolicy tunes hedged reads (see HedgePolicy). The zero policy
// gets defaults: p95 trigger, 10ms floor, 10% hedge budget, 16-sample
// warmup. Disable with HedgePolicy{Disabled: true}.
func WithHedgePolicy(p HedgePolicy) Option { return func(c *config) { c.hedge = p } }

// WithStateListener registers a callback invoked synchronously on every
// replica breaker transition (closed → open on failures, open → half-open
// on cooldown, anything → closed on recovery). Operators hook alerting
// here; tests hook assertions. The callback must not block: it runs on
// request and probe paths.
func WithStateListener(fn func(ReplicaEvent)) Option { return func(c *config) { c.listener = fn } }

// WithLogger sets the structured logger the router emits operational
// events through: request logs (with trace IDs when traced), breaker
// transitions, and passive failure marking. Default: a discard logger.
// Logging is additive — WithStateListener callbacks fire exactly as
// before, whether or not a logger is set.
func WithLogger(l *slog.Logger) Option { return func(c *config) { c.logger = l } }

// WithTraceCapacity bounds the router's in-memory trace ring served by
// GET /v1/traces (default obs.DefaultTraceCapacity). The router records
// its own spans only; each replica serves its half of a trace from its
// own /v1/traces.
func WithTraceCapacity(n int) Option { return func(c *config) { c.traceCap = n } }

// New builds a cluster over the replica base URLs (e.g.
// "http://10.0.0.1:8080"). All replicas start optimistically healthy;
// the first probe or transport failure corrects the picture.
func New(replicas []string, opts ...Option) (*Cluster, error) {
	cfg := config{
		replication:  2,
		probeEvery:   2 * time.Second,
		probeTimeout: 2 * time.Second,
		lib:          cellib.Default06(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas given")
	}
	if cfg.ids != nil && len(cfg.ids) != len(replicas) {
		return nil, fmt.Errorf("cluster: %d replica IDs for %d replicas", len(cfg.ids), len(replicas))
	}
	if cfg.replication < 1 {
		cfg.replication = 1
	}
	if cfg.replication > len(replicas) {
		cfg.replication = len(replicas)
	}
	if cfg.probeTimeout <= 0 || (cfg.probeEvery > 0 && cfg.probeTimeout > cfg.probeEvery) {
		cfg.probeTimeout = cfg.probeEvery
	}
	cfg.breaker = cfg.breaker.withDefaults()
	cfg.hedge = cfg.hedge.withDefaults()
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.DiscardHandler)
	}

	c := &Cluster{
		rf:           cfg.replication,
		lib:          cfg.lib,
		probeEvery:   cfg.probeEvery,
		probeTimeout: cfg.probeTimeout,
		hedge:        cfg.hedge,
		hbudget:      newHedgeBudget(cfg.hedge.MaxRatio),
		texts:        lru.New[string, *circuitText](textCap, nil),
		results:      lru.New[string, []byte](resultCacheCap, nil),
		log:          cfg.logger,
		rollupEvery:  cfg.slo.RollupInterval,
		stop:         make(chan struct{}),
	}
	if c.rollupEvery <= 0 {
		c.rollupEvery = 5 * time.Second
	}
	c.node = node.New(node.Role{
		Name:         "router",
		RootSpan:     "router.request",
		MetricPrefix: "halotisd_router_",
		Sample:       c.sample,
		Status:       c.status,
	}, node.Config{
		Logger:                cfg.logger,
		TraceCapacity:         cfg.traceCap,
		SLOTargetP99:          cfg.slo.TargetP99,
		SLOTargetAvailability: cfg.slo.TargetAvailability,
		SeriesResolution:      cfg.slo.SeriesResolution,
		SeriesWindows:         cfg.slo.SeriesWindows,
		FlightCapacity:        cfg.slo.FlightCapacity,
	})
	seen := make(map[string]bool, len(replicas))
	for i, addr := range replicas {
		id := strings.TrimRight(addr, "/")
		if cfg.ids != nil {
			id = cfg.ids[i]
		}
		if id == "" || seen[id] {
			return nil, fmt.Errorf("cluster: replica ID %q empty or duplicated", id)
		}
		seen[id] = true
		r := &replica{
			id:   id,
			addr: strings.TrimRight(addr, "/"),
			c:    client.New(addr, append([]client.Option{client.WithRetry(cfg.retry)}, cfg.clientOpts...)...),
		}
		// Replicas start optimistically closed (healthy); the zero breaker
		// state is closed by construction.
		r.br.pol = cfg.breaker
		r.events = func(ev ReplicaEvent) {
			// Breaker transitions used to be visible only through metrics
			// and WithStateListener; they now also log. Opens are the
			// actionable ones (a replica just dropped out of rotation).
			lvl := slog.LevelInfo
			if ev.To == BreakerOpen {
				lvl = slog.LevelWarn
			}
			c.log.LogAttrs(context.Background(), lvl, "replica breaker transition",
				slog.String("replica", ev.Replica),
				slog.String("addr", ev.Addr),
				slog.String("from", ev.From.String()),
				slog.String("to", ev.To.String()),
				slog.String("reason", ev.Reason))
			switch ev.To {
			case BreakerOpen:
				c.met.breakerOpens.Add(1)
			case BreakerClosed:
				c.met.breakerCloses.Add(1)
			}
			if cfg.listener != nil {
				cfg.listener(ev)
			}
		}
		c.replicas = append(c.replicas, r)
	}
	c.routes()
	if c.probeEvery > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	if cfg.slo.SeriesWindows >= 0 { // the rollup feeds /v1/status, which sampling enables
		c.wg.Add(1)
		go c.rollupLoop()
	}
	return c, nil
}

// Close stops the background prober. Sessions opened on the cluster stay
// usable for requests (their circuits live on the replicas), but health
// state is no longer refreshed.
func (c *Cluster) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	c.node.Close()
	return nil
}

// Replication returns the effective replication factor.
func (c *Cluster) Replication() int { return c.rf }

// replica is one member node: its typed client plus the breaker, latency
// and accounting state the routing layer maintains.
type replica struct {
	id   string // rendezvous identity and metrics label
	addr string
	c    *client.Client

	br           breaker
	lat          latencyTracker
	events       func(ReplicaEvent) // set by New; fans out to metrics + listener
	stateChanges atomic.Uint64      // breaker transitions

	lastProbeMs atomic.Int64
	failures    atomic.Uint64 // transport-level failures (probe + request)
	served      atomic.Uint64 // requests this replica answered

	mu         sync.Mutex
	lastHealth api.HealthResponse // from the last successful probe
}

// healthy reports whether the replica's breaker is closed — the routing
// layer's definition of "healthy" (open and half-open replicas are
// recovering, not trusted).
func (r *replica) healthy() bool { return r.br.state() == BreakerClosed }

// emit records a breaker transition and fans it out to the cluster's
// metrics and the user's state listener.
func (r *replica) emit(tr transition, reason string) {
	r.stateChanges.Add(1)
	if r.events != nil {
		r.events(ReplicaEvent{Replica: r.id, Addr: r.addr, From: tr.From, To: tr.To, Reason: reason})
	}
}

// noteFail records a failed request or probe against the breaker.
func (r *replica) noteFail(reason string) {
	r.failures.Add(1)
	if tr, changed := r.br.onFailure(time.Now()); changed {
		r.emit(tr, reason)
	}
}

// markDown records a passive transport failure: the replica's breaker
// opens (at its failure threshold) until a probe or trial succeeds again.
func (r *replica) markDown() { r.noteFail("transport failure") }

// markUp records a successful request or probe: the breaker closes from
// any state.
func (r *replica) markUp(reason string) {
	if tr, changed := r.br.onSuccess(); changed {
		r.emit(tr, reason)
	}
}

func (r *replica) info() api.ReplicaInfo {
	r.mu.Lock()
	h := r.lastHealth
	r.mu.Unlock()
	st := r.br.state()
	return api.ReplicaInfo{
		ID:              r.id,
		Addr:            r.addr,
		Healthy:         st == BreakerClosed,
		State:           st.String(),
		LastProbeUnixMs: r.lastProbeMs.Load(),
		Circuits:        h.Circuits,
		QueueDepth:      h.QueueDepth,
		Workers:         h.Workers,
		Failures:        r.failures.Load(),
	}
}

// Topology snapshots the member replicas and placement parameters; the
// router serves it as GET /v1/topology.
func (c *Cluster) Topology() api.TopologyResponse {
	resp := api.TopologyResponse{Replication: c.rf}
	for _, r := range c.replicas {
		resp.Replicas = append(resp.Replicas, r.info())
	}
	return resp
}

// probeLoop refreshes every replica's health on the configured interval.
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.ProbeNow()
		}
	}
}

// ProbeNow probes every replica's /healthz once, concurrently, updating
// health state, and returns when all probes finish. The background prober
// calls it on its interval; tests and operators call it for an immediate
// refresh.
func (c *Cluster) ProbeNow() {
	fanout.Each(context.Background(), len(c.replicas), len(c.replicas), false, func(ctx context.Context, i int) error {
		r := c.replicas[i]
		timeout := c.probeTimeout
		if timeout <= 0 {
			timeout = 2 * time.Second
		}
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		h, err := r.c.Probe(ctx)
		r.lastProbeMs.Store(time.Now().UnixMilli())
		if err != nil {
			r.noteFail("probe failed")
			return nil
		}
		r.mu.Lock()
		r.lastHealth = *h
		r.mu.Unlock()
		// Probe-driven recovery: a successful probe is the half-open
		// trial, whoever initiated it.
		r.markUp("probe ok")
		return nil
	})
}

// circuitText is the serialized form of a circuit the cluster has seen —
// what makes upload-on-miss possible after a failover. Losing one to the
// texts bound costs only the ability to repair that circuit: replicas
// re-parse and re-compile on upload.
type circuitText struct {
	id     string
	text   string
	format string
	name   string
}
