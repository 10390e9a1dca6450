// Package node is the HTTP shell shared by the two kinds of halotisd node:
// the simulation replica (internal/service) and the cluster router
// (cluster). The roles differ in what their endpoints do; everything
// around those endpoints exists once, here:
//
//   - the middleware chain: tracing (outermost, so every response — even a
//     request shed at admission — carries its trace ID), then per-endpoint
//     instrumentation with the deadline-budget gate, then the flight note
//     the handler interior fills;
//   - per-endpoint request counters and latency histograms, SLO accounting
//     and the anomaly flight recorder with exemplar pinning;
//   - the series sampler and the /v1/status, /v1/series,
//     /v1/flightrecorder and /v1/traces[/{id}] endpoints;
//   - the JSON and wire-error writers, with one table from error code to
//     HTTP status (ErrorStatus) and one Retry-After rule.
//
// A Role names the node and hooks in its role-only series and status
// fields; a Config carries the SLO objective and store sizes, with the
// defaults applied here and nowhere else.
package node

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"halotis/api"
	"halotis/internal/obs"
	"halotis/internal/obs/flight"
	"halotis/internal/obs/tsdb"
)

// Role is what differs between a replica and the router.
type Role struct {
	// Name identifies the node on /v1/status, /v1/series,
	// /v1/flightrecorder and its recorded spans: the replica's ID, or
	// "router".
	Name string
	// Replica is the identity stamped on the node's own error bodies and
	// flight records: the replica's ID, or empty on the router, which
	// relays the identity of the replica an error came from.
	Replica string
	// RootSpan names the span bracketing each traced request
	// ("replica.request", "router.request").
	RootSpan string
	// MetricPrefix prefixes every /metrics family ("halotisd_",
	// "halotisd_router_").
	MetricPrefix string
	// Sample, if set, writes the role's own series on every sampler tick.
	Sample func(*Sampler)
	// Status, if set, adds the role's own fields to a /v1/status response
	// the shell has filled in.
	Status func(*api.StatusResponse)
}

// Config is the node's service-level objective and observability store
// sizing. The zero value gets the defaults.
type Config struct {
	// Logger receives request logs, stamped with trace IDs when traced.
	// Default: a discard logger.
	Logger *slog.Logger
	// TraceCapacity bounds the trace ring (default obs.DefaultTraceCapacity).
	TraceCapacity int
	// SLOTargetP99 is the latency objective: an API request slower than
	// this is SLO-bad (default 500ms).
	SLOTargetP99 time.Duration
	// SLOTargetAvailability is the success objective in (0, 1) the burn
	// rates are evaluated against (default 0.999).
	SLOTargetAvailability float64
	// SeriesResolution is the time-series window width (default
	// tsdb.DefaultResolution).
	SeriesResolution time.Duration
	// SeriesWindows is how many windows the series ring retains (default
	// tsdb.DefaultWindows). Negative disables sampling, /v1/series and
	// /v1/status.
	SeriesWindows int
	// FlightCapacity bounds the flight-recorder ring (default
	// flight.DefaultCapacity). Negative disables the recorder,
	// /v1/flightrecorder and the self-tracing it performs.
	FlightCapacity int
}

// Series the shell writes; the roles add their own through Role.Sample.
// Rates are per second from tick deltas, gauges are last-writes, slo_*
// are per-window sums.
const (
	seriesRequestsPerSec = "requests_per_second"
	seriesErrorsPerSec   = "errors_per_second"
	seriesShedPerSec     = "deadline_shed_per_second"
	seriesSimP50Ms       = "simulate_p50_ms"
	seriesSimP99Ms       = "simulate_p99_ms"
	seriesTracesPinned   = "traces_pinned"
	seriesSLORequests    = "slo_requests"
	seriesSLOBad         = "slo_bad"
)

// minSlowThreshold floors the p99-derived promotion threshold so a
// fast-path-dominated window (cache hits, p99 in microseconds) cannot
// promote every request that does real work.
const minSlowThreshold = time.Millisecond

// Node is one node's HTTP shell. Build it with New, mount the role's
// endpoints with Handle, then call Start; serve Handler; Close on shutdown.
type Node struct {
	role      Role
	cfg       Config
	start     time.Time
	traces    *obs.Recorder
	db        *tsdb.DB
	flight    *flight.Ring
	mux       *http.ServeMux
	endpoints []*endpoint

	// DeadlineShed counts requests refused because their propagated
	// deadline budget was spent: at admission here, or later by the role
	// (a replica sheds jobs whose budget dies while queued).
	DeadlineShed atomic.Uint64
	httpErrors   atomic.Uint64
	// SLO accounting: API requests observed and the bad ones, plus the
	// totals the sampler last folded into the series ring — the
	// difference is the live remainder the burn-rate windows add.
	sloTotal, sloBad         atomic.Uint64
	sampledTotal, sampledBad atomic.Uint64

	stop, done chan struct{}
	closeOnce  sync.Once
}

// endpoint is the accounting of one named endpoint, shared by every
// pattern mounted under the name.
type endpoint struct {
	name     string
	api      bool // the request-serving API: SLO-counted and flight-recorded
	requests atomic.Uint64
	latency  *obs.Histogram
	slowNs   atomic.Int64          // promotion threshold, refreshed by the sampler
	prev     obs.HistogramSnapshot // latency at the previous tick (sampler only)
}

// New builds a node shell for role with cfg's objective and store sizes.
func New(role Role, cfg Config) *Node {
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.SLOTargetP99 <= 0 {
		cfg.SLOTargetP99 = 500 * time.Millisecond
	}
	if cfg.SLOTargetAvailability <= 0 || cfg.SLOTargetAvailability >= 1 {
		cfg.SLOTargetAvailability = 0.999
	}
	if cfg.SeriesResolution <= 0 {
		cfg.SeriesResolution = tsdb.DefaultResolution
	}
	n := &Node{
		role:   role,
		cfg:    cfg,
		start:  time.Now(),
		traces: obs.NewRecorder(role.Name, cfg.TraceCapacity),
		mux:    http.NewServeMux(),
	}
	// A negative size disables a store; zero takes the store's default.
	if cfg.SeriesWindows >= 0 {
		n.db = tsdb.New(cfg.SeriesResolution, cfg.SeriesWindows)
	}
	if cfg.FlightCapacity >= 0 {
		n.flight = flight.NewRing(cfg.FlightCapacity)
	}
	return n
}

// Handle mounts h at pattern, counted and timed as the named endpoint
// (several patterns may share one name). The upload, circuits, simulate
// and batch endpoints are the request-serving API: they also feed SLO
// accounting and the flight recorder once h returns, so the request's
// flight note is complete.
//
// A request carrying a deadline budget (api.BudgetHeader) is shed with 504
// deadline_exceeded when the budget is already spent — before h parses,
// queues or routes anything — and otherwise runs under a context narrowed
// to the budget, so every downstream stage observes the caller's deadline.
// The gate sits here, where the endpoint is known, so a shed is accounted
// like any other outcome: SLO-bad, flight-recorded and pinned.
func (n *Node) Handle(pattern, name string, h http.HandlerFunc) {
	ep := n.endpoint(name)
	n.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		ep.requests.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		n.admit(sw, r, h)
		d := time.Since(start)
		ep.latency.Observe(d.Seconds())
		n.observe(ep, r, sw.status, d)
	})
}

func (n *Node) endpoint(name string) *endpoint {
	for _, ep := range n.endpoints {
		if ep.name == name {
			return ep
		}
	}
	ep := &endpoint{name: name, latency: obs.NewHistogram(obs.LatencyBuckets()...)}
	switch name {
	case "upload", "circuits", "simulate", "batch":
		ep.api = true
	}
	// Until the sampler has a p99 to derive from, "slow" means "past the
	// SLO target".
	ep.slowNs.Store(n.cfg.SLOTargetP99.Nanoseconds())
	n.endpoints = append(n.endpoints, ep)
	return ep
}

// admit runs h under the request's deadline budget, or sheds the request
// when the budget is already spent.
func (n *Node) admit(w http.ResponseWriter, r *http.Request, h http.HandlerFunc) {
	budget, ok := api.BudgetFrom(r.Header)
	if !ok {
		h(w, r)
		return
	}
	if budget <= 0 {
		n.DeadlineShed.Add(1)
		n.Error(w, r, api.DeadlineExceededf("budget expired before admission (%s %s)", r.Method, r.URL.Path))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	h(w, r.WithContext(ctx))
}

// Start mounts the node's own endpoints after the role's — traces,
// status, series and flight recorder — and starts the series sampler.
// Call it once, after the role's Handle calls.
func (n *Node) Start() {
	n.Handle("GET /v1/traces", "traces", n.handleTraces)
	n.Handle("GET /v1/traces/{id}", "traces", n.handleTrace)
	n.Handle("GET /v1/status", "status", n.handleStatus)
	n.Handle("GET /v1/series", "series", n.handleSeries)
	n.Handle("GET /v1/flightrecorder", "flightrecorder", n.handleFlight)
	if n.db != nil {
		n.stop = make(chan struct{})
		n.done = make(chan struct{})
		go n.runSampler()
	}
}

// Handler returns the node's HTTP handler: the endpoint mux behind the
// tracing middleware.
func (n *Node) Handler() http.Handler { return n.withTrace(n.mux) }

// Close stops the series sampler. It is idempotent.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		if n.stop != nil {
			close(n.stop)
			<-n.done
		}
	})
}

// Uptime is the time since the node was built.
func (n *Node) Uptime() time.Duration { return time.Since(n.start) }

// Latest returns the newest value of a sampled series, 0 when there is
// none yet. It needs sampling enabled, as /v1/status and so the
// Role.Status hook do.
func (n *Node) Latest(metric string) float64 {
	p, _ := n.db.Latest(metric)
	return p.Value
}

// statusWriter captures the response status for spans, logs and the SLO.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// flightPath reports whether a URL belongs to the flight-recorded API; the
// tracing middleware sees the URL before the mux resolves an endpoint.
func flightPath(p string) bool {
	return strings.HasPrefix(p, "/v1/simulate") || strings.HasPrefix(p, "/v1/circuits")
}

// withTrace adopts an upstream Halotis-Trace header, opens the role's
// root span, and logs the finished request with its trace ID. Untraced API
// requests headed for the flight recorder get a flight note and a
// self-assigned internal trace — invisible in the /v1/traces listing but
// fetchable by ID — so an anomaly has a span tree to pin even when nobody
// enabled tracing. Everything else takes the fast path: one header lookup,
// plus a request line only if debug logging wants it.
func (n *Node) withTrace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID, parent, traced := api.TraceFrom(r.Header)
		recorded := n.flight != nil && flightPath(r.URL.Path)
		lvl := slog.LevelDebug
		if traced {
			lvl = slog.LevelInfo
		}
		if !traced && !recorded && !n.cfg.Logger.Enabled(r.Context(), lvl) {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		var sp *obs.Span
		if traced || recorded {
			ctx := r.Context()
			if traced {
				ctx = obs.WithTrace(ctx, n.traces, traceID, parent)
			} else {
				ctx = obs.WithInternalTrace(ctx, n.traces, api.NewTraceID())
			}
			ctx, sp = obs.Start(ctx, n.role.RootSpan)
			sp.SetAttr("method", r.Method)
			sp.SetAttr("path", r.URL.Path)
			if recorded {
				ctx, _ = flight.WithNote(ctx)
			}
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(sw, r)
		if sp != nil {
			sp.SetAttr("status", strconv.Itoa(sw.status))
			sp.End()
		}
		if sw.status >= 500 {
			lvl = slog.LevelWarn
		}
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", time.Since(start)),
		}
		if traced {
			attrs = append(attrs, slog.String("trace_id", traceID))
		}
		n.cfg.Logger.LogAttrs(r.Context(), lvl, "request", attrs...)
	})
}

// observe files one finished API request: SLO accounting, the flight
// record, and anomaly promotion — a failed, shed, slow, hedged, degraded or
// partial request pins its trace as an exemplar.
func (n *Node) observe(ep *endpoint, req *http.Request, status int, d time.Duration) {
	if !ep.api {
		return
	}
	n.sloTotal.Add(1)
	if status >= 500 || d > n.cfg.SLOTargetP99 {
		n.sloBad.Add(1)
	}
	if n.flight == nil {
		return
	}

	var flags flight.Flags
	rec := flight.Record{
		//halotis:wallclock flight records are stamped with arrival wall time for the operator timeline
		UnixNano:  time.Now().Add(-d).UnixNano(),
		Route:     ep.name,
		Replica:   n.role.Replica,
		Status:    status,
		LatencyNs: d.Nanoseconds(),
	}
	if note := flight.NoteFrom(req.Context()); note != nil {
		if note.Cached {
			flags |= flight.FlagCached
		}
		if note.Hedged {
			flags |= flight.FlagHedged
		}
		if note.Degraded {
			flags |= flight.FlagDegraded
		}
		if note.Partial {
			flags |= flight.FlagPartial
		}
		rec.QueueWaitNs = note.QueueWaitNs
		rec.KernelEvents = note.KernelEvents
		rec.Code = note.Code
	}
	if status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout {
		flags |= flight.FlagShed
	}
	if status >= 500 {
		flags |= flight.FlagFailed
	}
	if thr := ep.slowNs.Load(); thr > 0 && d.Nanoseconds() > thr {
		flags |= flight.FlagSlow
	}
	rec.TraceID, _ = obs.ContextTraceAny(req.Context())
	const anomalous = flight.FlagHedged | flight.FlagDegraded | flight.FlagPartial |
		flight.FlagShed | flight.FlagFailed | flight.FlagSlow
	if flags&anomalous != 0 {
		flags |= flight.FlagPinned
		n.traces.Pin(rec.TraceID)
	}
	rec.Flags = flags
	n.flight.Put(rec)
}

// --- series sampler ---

// Sampler writes one tick's points into the series ring; the shell hands
// it to Role.Sample for the role's own series.
type Sampler struct {
	db   *tsdb.DB
	now  time.Time
	secs float64
	prev map[string]uint64 // counter values at the previous tick, by series
}

// Set writes a gauge point.
func (s *Sampler) Set(metric string, v float64) { s.db.Set(s.now, metric, v) }

// Rate writes a monotonic counter's per-second rate since the previous
// tick.
func (s *Sampler) Rate(metric string, counter uint64) {
	s.Set(metric, float64(counter-s.prev[metric])/s.secs)
	s.prev[metric] = counter
}

// runSampler is the periodic snapshot loop feeding the series ring, one
// goroutine per node, stopped by Close.
func (n *Node) runSampler() {
	defer close(n.done)
	tick := time.NewTicker(n.cfg.SeriesResolution)
	defer tick.Stop()
	smp := &Sampler{db: n.db, secs: n.cfg.SeriesResolution.Seconds(), prev: map[string]uint64{}}
	// Seed the ring immediately so /v1/series lists every metric from the
	// first request on, instead of 404-shaped emptiness until the first tick.
	n.sampleOnce(smp)
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			n.sampleOnce(smp)
		}
	}
}

// sampleOnce takes one snapshot tick: per-second rates from counter
// deltas, gauges, the role's series, SLO window sums, latency quantiles of
// the delta distribution, and the per-endpoint slow-promotion thresholds.
func (n *Node) sampleOnce(smp *Sampler) {
	smp.now = time.Now()
	var requests uint64
	for _, ep := range n.endpoints {
		requests += ep.requests.Load()
	}
	smp.Rate(seriesRequestsPerSec, requests)
	smp.Rate(seriesErrorsPerSec, n.httpErrors.Load())
	smp.Rate(seriesShedPerSec, n.DeadlineShed.Load())
	smp.Set(seriesTracesPinned, float64(len(n.traces.Pinned())))
	if n.role.Sample != nil {
		n.role.Sample(smp)
	}
	total, bad := n.sloTotal.Load(), n.sloBad.Load()
	n.db.Add(smp.now, seriesSLORequests, float64(total-n.sampledTotal.Load()))
	n.db.Add(smp.now, seriesSLOBad, float64(bad-n.sampledBad.Load()))
	n.sampledTotal.Store(total)
	n.sampledBad.Store(bad)

	// Refresh each API endpoint's promotion threshold: twice the recent
	// p99, floored, and never above the SLO target (a request breaching
	// the SLO is always anomalous). Windows with too few samples keep the
	// previous threshold — quantiles of a handful of requests are noise.
	const minSamples = 16
	for _, ep := range n.endpoints {
		cur := ep.latency.Snapshot()
		delta := cur.Sub(ep.prev)
		ep.prev = cur
		if ep.name == "simulate" && delta.Count() > 0 {
			smp.Set(seriesSimP50Ms, delta.Quantile(0.50)*1e3)
			smp.Set(seriesSimP99Ms, delta.Quantile(0.99)*1e3)
		}
		if !ep.api || delta.Count() < minSamples {
			continue
		}
		thr := time.Duration(2 * delta.Quantile(0.99) * float64(time.Second))
		thr = max(thr, minSlowThreshold)
		thr = min(thr, n.cfg.SLOTargetP99)
		ep.slowNs.Store(thr.Nanoseconds())
	}
}

// sloWindows evaluates the burn rate over the fast (30 windows) and slow
// (full ring) horizons. The unsampled remainder — requests observed since
// the last tick — is folded into both, so a breach surfaces on the next
// status read, not the next tick.
func (n *Node) sloWindows() []api.SLOWindow {
	fast := min(30*n.cfg.SeriesResolution, n.db.Span())
	liveTotal := float64(n.sloTotal.Load() - n.sampledTotal.Load())
	liveBad := float64(n.sloBad.Load() - n.sampledBad.Load())
	budget := 1 - n.cfg.SLOTargetAvailability
	mk := func(name string, w time.Duration) api.SLOWindow {
		req := n.db.Sum(seriesSLORequests, w) + liveTotal
		bad := n.db.Sum(seriesSLOBad, w) + liveBad
		win := api.SLOWindow{Name: name, WindowMs: w.Milliseconds(), Requests: req, BadRequests: bad, Availability: 1}
		if req > 0 {
			win.Availability = 1 - bad/req
			win.BurnRate = (1 - win.Availability) / budget
			win.Firing = win.BurnRate >= 1
		}
		return win
	}
	return []api.SLOWindow{mk("fast", fast), mk("slow", n.db.Span())}
}

// statusOf rolls burn windows up to a verdict: "firing" when every window
// burns, "warn" when some do.
func statusOf(windows []api.SLOWindow) string {
	firing := 0
	for _, w := range windows {
		if w.Firing {
			firing++
		}
	}
	switch {
	case firing == len(windows) && firing > 0:
		return "firing"
	case firing > 0:
		return "warn"
	}
	return "ok"
}

// parseWindow accepts a Go duration string ("5m") or integer seconds.
func parseWindow(q string) time.Duration {
	if q == "" {
		return 0
	}
	if d, err := time.ParseDuration(q); err == nil && d > 0 {
		return d
	}
	if secs, err := strconv.Atoi(q); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// flightWire converts an in-memory flight record to its JSON shape.
func flightWire(rec flight.Record) api.FlightRecord {
	return api.FlightRecord{
		UnixMs:       rec.UnixNano / int64(time.Millisecond),
		TraceID:      rec.TraceID,
		Route:        rec.Route,
		Replica:      rec.Replica,
		StatusCode:   rec.Status,
		Code:         rec.Code,
		LatencyMs:    float64(rec.LatencyNs) / float64(time.Millisecond),
		QueueWaitMs:  float64(rec.QueueWaitNs) / float64(time.Millisecond),
		KernelEvents: rec.KernelEvents,
		Cached:       rec.Flags.Has(flight.FlagCached),
		Hedged:       rec.Flags.Has(flight.FlagHedged),
		Degraded:     rec.Flags.Has(flight.FlagDegraded),
		Partial:      rec.Flags.Has(flight.FlagPartial),
		Shed:         rec.Flags.Has(flight.FlagShed),
		Failed:       rec.Flags.Has(flight.FlagFailed),
		Slow:         rec.Flags.Has(flight.FlagSlow),
		Pinned:       rec.Flags.Has(flight.FlagPinned),
	}
}

// --- the node's own endpoints ---

// handleStatus serves the SLO verdict: burn-rate windows, headline rates
// and pinned exemplars, plus whatever the role adds.
//
//halotis:noctx renders in-memory rings and counters; no downstream work
func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	if n.db == nil {
		n.Error(w, r, api.NotFoundf("time-series sampling disabled on this node"))
		return
	}
	windows := n.sloWindows()
	pinned := n.traces.Pinned()
	resp := api.StatusResponse{
		Status:        statusOf(windows),
		Node:          n.role.Name,
		UptimeSeconds: n.Uptime().Seconds(),
		SLO: api.SLOConfig{
			TargetP99Ms:        float64(n.cfg.SLOTargetP99) / float64(time.Millisecond),
			TargetAvailability: n.cfg.SLOTargetAvailability,
		},
		Windows:           windows,
		RequestsPerSecond: n.Latest(seriesRequestsPerSec),
		ErrorsPerSecond:   n.Latest(seriesErrorsPerSec),
		P50Ms:             n.Latest(seriesSimP50Ms),
		P99Ms:             n.Latest(seriesSimP99Ms),
		TracesPinned:      len(pinned),
		Exemplars:         pinned[:min(len(pinned), 8)],
	}
	if n.role.Status != nil {
		n.role.Status(&resp)
	}
	WriteJSON(w, http.StatusOK, resp)
}

//halotis:noctx renders the in-memory series ring; no downstream work
func (n *Node) handleSeries(w http.ResponseWriter, r *http.Request) {
	if n.db == nil {
		n.Error(w, r, api.NotFoundf("time-series sampling disabled on this node"))
		return
	}
	resp := api.SeriesResponse{Node: n.role.Name, ResolutionMs: n.db.Resolution().Milliseconds()}
	metric := r.URL.Query().Get("metric")
	if metric == "" {
		resp.Metrics = n.db.Names()
		WriteJSON(w, http.StatusOK, resp)
		return
	}
	resp.Metric = metric
	pts := n.db.Query(metric, parseWindow(r.URL.Query().Get("window")))
	resp.Points = make([]api.SeriesPoint, len(pts))
	for i, p := range pts {
		resp.Points[i] = api.SeriesPoint{UnixMs: p.UnixMs, Value: p.Value}
	}
	WriteJSON(w, http.StatusOK, resp)
}

//halotis:noctx renders the in-memory flight ring; no downstream work
func (n *Node) handleFlight(w http.ResponseWriter, r *http.Request) {
	if n.flight == nil {
		n.Error(w, r, api.NotFoundf("flight recorder disabled on this node"))
		return
	}
	limit := 128
	if q, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && q > 0 {
		limit = q
	}
	recorded, promoted := n.flight.Stats()
	recs := n.flight.Recent(limit)
	resp := api.FlightResponse{
		Node:           n.role.Name,
		Recorded:       recorded,
		Promoted:       promoted,
		Records:        make([]api.FlightRecord, len(recs)),
		PinnedTraceIDs: n.traces.Pinned(),
	}
	for i, rec := range recs {
		resp.Records[i] = flightWire(rec)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleTraces lists the node's recorded traces, newest first. Each trace
// holds only this node's spans; the other hops of a request serve theirs
// under the same trace ID.
//
//halotis:noctx serves the in-memory trace ring; no downstream work
func (n *Node) handleTraces(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, n.traces.Traces())
}

func (n *Node) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, ok := n.traces.Trace(r.PathValue("id"))
	if !ok {
		n.Error(w, r, api.NotFoundf("unknown trace %q", r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, tr)
}

// --- response writers ---

// WriteJSON writes v as the JSON response body with status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode failure here is a connection-level problem; there is
	// nothing useful left to write.
	_ = json.NewEncoder(w).Encode(v)
}

// bodyPool recycles the buffers WriteEncoded encodes into.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds the buffers bodyPool keeps, so one huge report does
// not pin its buffer.
const maxPooledBody = 1 << 20

// WriteEncoded answers 200 with the body encode appends to its argument,
// ended by the newline WriteJSON ends every body with. The simulate codec
// (internal/wire) is the encoder: the body is complete before the header
// goes out, so an encode that fails (a float JSON cannot carry) is
// answered as Error answers it instead of as a 200 with a broken body.
func (n *Node) WriteEncoded(w http.ResponseWriter, r *http.Request, encode func([]byte) ([]byte, error)) {
	buf := bodyPool.Get().(*[]byte)
	body, err := encode((*buf)[:0])
	if err != nil {
		n.Error(w, r, err)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		body = append(body, '\n')
		_, _ = w.Write(body) // a failed write is the caller's connection; nothing is left to answer
	}
	if cap(body) <= maxPooledBody {
		*buf = body[:0]
		bodyPool.Put(buf)
	}
}

// WriteError writes resp as the wire error body with status. Every error
// either role answers goes through here: it is counted, echoes a traced
// request's trace ID, files its code on the flight note, and renders a
// retry hint as the Retry-After header by one rule — whole seconds rounded
// up, so a caller honoring the header never retries before the hint.
// Error and BadRequest pick the status; the router calls WriteError itself
// only to relay a replica's answer and for its own code-less failures.
func (n *Node) WriteError(w http.ResponseWriter, r *http.Request, status int, resp *api.ErrorResponse) {
	n.httpErrors.Add(1)
	if tid, _, ok := obs.ContextTrace(r.Context()); ok {
		resp.TraceID = tid
	}
	if resp.RetryAfterMs > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((resp.RetryAfterMs+999)/1000, 10))
	}
	if note := flight.NoteFrom(r.Context()); note != nil {
		note.Code = resp.Code
	}
	WriteJSON(w, status, resp)
}

// ErrorStatus is the one table from a wire error code to the HTTP status
// both roles answer it with. An answer without a code is a router's own
// gateway failure, such as no replica answering: 502.
func ErrorStatus(code string) int {
	switch code {
	case api.CodeInvalidRequest, api.CodeRunFailed:
		return http.StatusUnprocessableEntity
	case api.CodeNotFound:
		return http.StatusNotFound
	case api.CodeOverloaded:
		return http.StatusServiceUnavailable
	case api.CodeDeadlineExceeded, api.CodeCanceled:
		return http.StatusGatewayTimeout
	}
	return http.StatusBadGateway
}

// Error answers err under the role's identity, with the status ErrorStatus
// gives its code. An error outside the taxonomy is a kernel run failure,
// coded run_failed (see api.ErrorResponseOf).
func (n *Node) Error(w http.ResponseWriter, r *http.Request, err error) {
	resp := api.ErrorResponseOf(err)
	resp.Replica = n.role.Replica
	n.WriteError(w, r, ErrorStatus(resp.Code), resp)
}

// BadRequest answers a request body that could not be decoded: 400
// invalid_request, under the role's identity.
func (n *Node) BadRequest(w http.ResponseWriter, r *http.Request, err error) {
	resp := &api.ErrorResponse{Error: err.Error(), Code: api.CodeInvalidRequest, Replica: n.role.Replica}
	n.WriteError(w, r, http.StatusBadRequest, resp)
}

// --- /metrics ---

// Metrics writes Prometheus text-format families under the node's metric
// prefix; the raw writer is embedded for labelled families.
type Metrics struct {
	io.Writer
	prefix string
}

// Gauge writes a single-sample gauge family.
func (m Metrics) Gauge(name string, v float64, help string) {
	fq := m.prefix + name
	fmt.Fprintf(m, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", fq, help, fq, fq, v)
}

// Counter writes a single-sample counter family.
func (m Metrics) Counter(name string, v uint64, help string) {
	fq := m.prefix + name
	fmt.Fprintf(m, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", fq, help, fq, fq, v)
}

// CounterFloat writes a single-sample counter family with a real value.
func (m Metrics) CounterFloat(name string, v float64, help string) {
	fq := m.prefix + name
	fmt.Fprintf(m, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", fq, help, fq, fq, v)
}

// WriteMetrics renders the /metrics page: the role's families (role
// writes them, build info first), then the families every node exports —
// per-endpoint requests and latency, errors, sheds, traces, the flight
// recorder — and the Go runtime gauges.
func (n *Node) WriteMetrics(w http.ResponseWriter, role func(Metrics)) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m := Metrics{Writer: w, prefix: n.role.MetricPrefix}
	role(m)
	m.Gauge("uptime_seconds", n.Uptime().Seconds(), "Seconds since the node started.")
	fmt.Fprintf(m, "# HELP %[1]srequests_total Requests served, by endpoint.\n# TYPE %[1]srequests_total counter\n", m.prefix)
	for _, ep := range n.endpoints {
		fmt.Fprintf(m, "%srequests_total{endpoint=%q} %d\n", m.prefix, ep.name, ep.requests.Load())
	}
	m.Counter("http_errors_total", n.httpErrors.Load(), "Responses with status >= 400.")
	m.Counter("deadline_shed_total", n.DeadlineShed.Load(), "Requests shed because their propagated deadline budget had expired.")
	obs.WriteHistogramHeader(m, m.prefix+"request_duration_seconds", "End-to-end request latency by endpoint, seconds.")
	for _, ep := range n.endpoints {
		ep.latency.WriteSeries(m, m.prefix+"request_duration_seconds", fmt.Sprintf("endpoint=%q", ep.name))
	}

	started, spans, dropped, retained := n.traces.Stats()
	m.Counter("traces_started_total", started, "Traces recorded (one per traced request arriving at this node).")
	m.Counter("trace_spans_total", spans, "Spans recorded across all traces.")
	m.Counter("trace_spans_dropped_total", dropped, "Spans dropped by the per-trace span bound.")
	m.Gauge("traces_retained", float64(retained), "Traces currently held in the in-memory ring.")
	m.Gauge("traces_pinned", float64(len(n.traces.Pinned())), "Anomaly exemplar traces currently pinned against eviction.")
	if n.flight != nil {
		recorded, promoted := n.flight.Stats()
		m.Counter("flight_records_total", recorded, "Requests filed in the flight-recorder ring.")
		m.Counter("flight_promoted_total", promoted, "Flight records promoted to pinned exemplars (slow, failed, shed, degraded, hedged, or partial).")
	}
	obs.WriteRuntimeMetrics(m, strings.TrimSuffix(m.prefix, "_"))
}
