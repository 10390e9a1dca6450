package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"halotis/api"
	"halotis/internal/admit"
	"halotis/internal/fanout"
	"halotis/internal/node"
	"halotis/internal/obs"
	"halotis/internal/obs/flight"
	"halotis/internal/run"
	"halotis/internal/wire"
)

// Server is the simulation service: an http.Handler plus the cache, engine
// pools and admission gate behind it. Create with New, mount Handler, Close
// on shutdown (waits for admitted jobs).
type Server struct {
	cfg     Config
	cache   *circuitCache
	results *resultCache
	gate    *admit.Gate
	met     metrics
	// node is the HTTP shell shared with the cluster router: middleware,
	// per-endpoint accounting, SLO windows, series sampler, flight
	// recorder, traces, and the wire writers.
	node *node.Node
}

// New builds a Server from the config (zero value = defaults).
func New(cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newCircuitCache(cfg.Lib, cfg.CacheSize, cfg.EnginePoolSize, cfg.ReplicaID),
		results: newResultCache(cfg.ResultCacheSize),
		gate:    admit.New(cfg.Workers, cfg.QueueDepth),
	}
	s.met.init()
	s.node = node.New(node.Role{
		Name:         cfg.ReplicaID,
		Replica:      cfg.ReplicaID,
		RootSpan:     "replica.request",
		MetricPrefix: "halotisd_",
		Sample:       s.sample,
		Status:       s.status,
	}, node.Config{
		Logger:                cfg.Logger,
		TraceCapacity:         cfg.TraceCapacity,
		SLOTargetP99:          cfg.SLOTargetP99,
		SLOTargetAvailability: cfg.SLOTargetAvailability,
		SeriesResolution:      cfg.SeriesResolution,
		SeriesWindows:         cfg.SeriesWindows,
		FlightCapacity:        cfg.FlightCapacity,
	})
	s.node.Handle("POST /v1/circuits", "upload", s.handleUpload)
	s.node.Handle("GET /v1/circuits", "circuits", s.handleList)
	s.node.Handle("GET /v1/circuits/{id}", "circuits", s.handleGet)
	s.node.Handle("DELETE /v1/circuits/{id}", "circuits", s.handleEvict)
	s.node.Handle("POST /v1/simulate", "simulate", s.handleSimulate)
	s.node.Handle("POST /v1/simulate/batch", "batch", s.handleBatch)
	s.node.Handle("GET /healthz", "healthz", s.handleHealth)
	s.node.Handle("GET /metrics", "metrics", s.handleMetrics)
	s.node.Start()
	return s
}

// Handler returns the HTTP handler serving the API: the node shell's
// tracing middleware in front of its endpoint mux, whose per-endpoint
// wrapper applies the deadline budget — so even requests shed at
// admission (budget already expired) carry a trace ID and count against
// the SLO.
func (s *Server) Handler() http.Handler { return s.node.Handler() }

// Close stops job admission and drains: waiting and running jobs finish
// before Close returns, and the series sampler stops. Call
// http.Server.Shutdown first so no new requests arrive while draining.
func (s *Server) Close() {
	s.node.Close()
	s.gate.Close()
}

// CacheStats snapshots the compiled-circuit cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// ResultCacheStats snapshots the result-cache counters.
func (s *Server) ResultCacheStats() ResultCacheStats { return s.results.Stats() }

// QueueStats snapshots the admission gate's counters.
func (s *Server) QueueStats() admit.Stats { return s.gate.Stats() }

// --- response plumbing ---

// overloaded types an admission refusal as ErrOverloaded, a 503 on the
// wire. The Retry-After hint is the live queue-drain estimate — how long
// the backlog needs at the observed service rate — not a fixed constant,
// so clients back off proportionally to the actual overload.
func (s *Server) overloaded(err error) error {
	return &api.OverloadedError{RetryAfter: retryAfterHint(s.drainEstimate()), Cause: err}
}

// shedError types a dead-context error for the wire: a deadline expiry is
// a shed (the budget ran out before the work executed), anything else a
// cancellation.
func shedError(cause error, when string) error {
	if errors.Is(cause, context.DeadlineExceeded) {
		return api.DeadlineExceededf("deadline budget expired %s", when)
	}
	return api.Canceled(cause)
}

// runJob runs job on the request's goroutine once the admission gate lets
// it in, and returns its value. On any failure runJob answers the error
// itself and reports false: 503 with Retry-After when the gate refuses the
// job, the job's own error when it fails, and 504 when the request's
// deadline budget expires while the job waits (it never runs) or runs. If
// the client disconnects first, nothing is written: nobody reads it. The
// job leaves the gate before any response is written.
func runJob[T any](s *Server, w http.ResponseWriter, r *http.Request, job func() (T, error)) (v T, ok bool) {
	ctx := r.Context()
	start := time.Now()
	err := s.gate.Enter(ctx)
	switch {
	case err == nil:
		wait := time.Since(start)
		s.met.queueWait.Observe(wait.Seconds())
		obs.Record(ctx, "queue.wait", start, wait, nil)
		if n := flight.NoteFrom(ctx); n != nil {
			n.QueueWaitNs = wait.Nanoseconds()
		}
		v, err = job()
		s.gate.Leave()
	case ctx.Err() == nil:
		err = s.overloaded(err)
	default:
		err = shedError(ctx.Err(), "while queued")
	}
	if cause := ctx.Err(); cause != nil {
		if !errors.Is(cause, context.DeadlineExceeded) {
			return v, false // the client went away; nobody reads a response
		}
		// The deadline budget expired. Prefer the job's own typed outcome
		// (mid-run aborts surface as canceled within an event pop).
		s.node.DeadlineShed.Add(1)
		if err == nil {
			err = shedError(cause, "before the job finished")
		}
	}
	if err != nil {
		s.node.Error(w, r, err)
		return v, false
	}
	return v, true
}

// resolve finds the target circuit: by cached ID, or by registering inline
// netlist text exactly as an upload would. The "compile" span covers both
// paths — its "source" attribute tells a cache lookup from an inline
// parse+compile.
func (s *Server) resolve(ctx context.Context, id, netlistText, format string) (*cacheEntry, error) {
	_, sp := obs.Start(ctx, "compile")
	defer sp.End()
	if id != "" {
		sp.SetAttr("source", "cache")
		ent, ok := s.cache.Get(id)
		if !ok {
			err := api.NotFoundf("unknown circuit %q", id)
			sp.Fail(err)
			return nil, err
		}
		return ent, nil
	}
	sp.SetAttr("source", "inline")
	ent, cached, err := s.cache.Add(netlistText, format, "")
	if err != nil {
		err = api.InvalidRequestf("parse netlist: %v", err)
		sp.Fail(err)
		return nil, err
	}
	if cached {
		sp.SetAttr("source", "inline-cached")
	}
	return ent, nil
}

// --- handlers ---

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeUploadRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.node.BadRequest(w, r, err)
		return
	}
	if resp, ok := runJob(s, w, r, func() (*UploadResponse, error) {
		ent, cached, err := s.cache.Add(req.Netlist, req.Format, req.Name)
		if err != nil {
			return nil, api.InvalidRequestf("parse netlist: %v", err)
		}
		return &UploadResponse{CircuitInfo: ent.info, Cached: cached}, nil
	}); ok {
		node.WriteJSON(w, http.StatusOK, resp)
	}
}

//halotis:noctx lists the in-memory circuit cache; no downstream work
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	node.WriteJSON(w, http.StatusOK, s.cache.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.cache.Get(r.PathValue("id"))
	if !ok {
		s.node.Error(w, r, api.NotFoundf("unknown circuit %q", r.PathValue("id")))
		return
	}
	node.WriteJSON(w, http.StatusOK, ent.info)
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	if !s.cache.Evict(r.PathValue("id")) {
		s.node.Error(w, r, api.NotFoundf("unknown circuit %q", r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeSimRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.node.BadRequest(w, r, err)
		return
	}
	if rep, ok := runJob(s, w, r, func() (*Report, error) {
		ent, err := s.resolve(r.Context(), req.Circuit, req.Netlist, req.Format)
		if err != nil {
			return nil, err
		}
		return s.runOne(r.Context(), ent, &req.Request)
	}); ok {
		noteReports(r.Context(), rep)
		s.node.WriteEncoded(w, r, func(b []byte) ([]byte, error) { return wire.AppendReport(b, rep) })
	}
}

// handleBatch fans the batch's requests out across the gate's slots, so a
// batch of N jobs on a W-slot daemon takes ~N/W serial job times instead
// of N. Admission control stays at batch granularity: the resolve step
// enters the gate like a simulate (a full backlog means a fast 503 for the
// whole batch) and leaves it before the runs enter, so a one-slot daemon
// cannot deadlock on its own batch. Up to W runs of the batch then wait for
// a slot each without the depth bound: they wait for capacity instead of
// being dropped midway.
//
// By default the first failure cancels the rest (in-flight runs abort at
// event-pop granularity) and the response reports the root cause, not a
// sibling's secondary cancellation. In partial mode
// (BatchOptions.AllowPartial) failures stay in their own slot: siblings
// keep running and the response carries per-request errors alongside the
// finished reports.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeBatchRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.node.BadRequest(w, r, err)
		return
	}
	// Resolve (and compile, for inline netlists) as the admission job.
	ent, ok := runJob(s, w, r, func() (*cacheEntry, error) {
		return s.resolve(r.Context(), req.Circuit, req.Netlist, req.Format)
	})
	if !ok {
		return
	}

	partial := req.Options != nil && req.Options.AllowPartial
	reports := make([]*Report, len(req.Requests))
	errs := fanout.Each(r.Context(), len(reports), s.cfg.Workers, !partial, func(ctx context.Context, i int) (err error) {
		if err := s.gate.EnterWait(ctx); err != nil {
			if ctx.Err() == nil {
				// Shutdown mid-fan-out is an availability condition,
				// reported like any other admission refusal.
				return s.overloaded(err)
			}
			return shedError(err, "while queued")
		}
		defer s.gate.Leave()
		reports[i], err = s.runOne(ctx, ent, &req.Requests[i])
		return err
	})
	for i, err := range errs {
		errs[i] = api.MapRunError(err) // a never-started slot holds the bare context error
	}
	if !partial {
		if idx, err := api.FirstFailure(errs); err != nil {
			s.node.Error(w, r, fmt.Errorf("requests[%d]: %w", idx, err))
			return
		}
	}
	noteReports(r.Context(), reports...)
	resp := BatchResponseOf(r.Context(), ent.info.ID, reports, errs)
	s.node.WriteEncoded(w, r, func(b []byte) ([]byte, error) { return wire.AppendBatchResponse(b, resp) })
}

// noteReports files served reports on the request's flight note: a
// result-cache answer marks the request cached, a kernel run adds its
// events. Handlers call it once the runs are done, so a batch's parallel
// jobs never write the shared note.
func noteReports(ctx context.Context, reps ...*Report) {
	n := flight.NoteFrom(ctx)
	if n == nil {
		return
	}
	for _, rep := range reps {
		switch {
		case rep == nil:
		case rep.Cached:
			n.Cached = true
		default:
			n.KernelEvents += rep.Stats.EventsProcessed
		}
	}
}

//halotis:noctx renders local gauges; no downstream work
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	node.WriteJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: s.node.Uptime().Seconds(),
		Circuits:      s.cache.Stats().Entries,
		QueueDepth:    s.gate.Stats().Depth,
		Workers:       s.cfg.Workers,
		Replica:       s.cfg.ReplicaID,
	})
}

//halotis:noctx renders in-memory counters; no downstream work
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.node.WriteMetrics(w, s.writeMetrics)
}

// --- run execution ---

// runOne serves one request against a resolved circuit: first from the
// result cache (simulation is a pure function of circuit + stimulus +
// options, so a repeated key is answered without a kernel run), otherwise
// through the shared run path (internal/run) on a warm engine from the
// circuit's pool, caching the materialized report. A request ResultKey
// calls uncacheable always runs and is never stored.
func (s *Server) runOne(ctx context.Context, ent *cacheEntry, req *Request) (*Report, error) {
	st, err := req.Prepare(ent.ir)
	if err != nil {
		return nil, err
	}
	traceID, _, traced := obs.ContextTrace(ctx)
	key := req.Options().PoolKey()
	// The event guard bounds how long one request holds a slot; the
	// operator's cap beats whatever the client asked for.
	if s.cfg.MaxEvents > 0 && key.MaxEvents > s.cfg.MaxEvents {
		key.MaxEvents = s.cfg.MaxEvents
	}
	ck, cacheable := ResultKey(ent.info.ID, st, req, key)
	if cacheable {
		if rep, ok := s.results.Get(ck); ok {
			rep.TraceID = traceID // Get returned a copy; the cached entry stays clean
			return rep, nil
		}
	}

	// Kernel progress streams into the node's event counter, so the series
	// sampler sees events/sec while a long run is still in flight.
	rep, err := run.Report(ctx, ent.pools, key, ent.info.ID, st, req, &s.met.simEvents, s.cfg.MaxTimeout)
	if err != nil {
		s.met.recordRun(0, err)
		return nil, err
	}
	elapsed := time.Duration(rep.ElapsedNs)
	s.met.recordRun(elapsed, nil)
	s.met.kernelRun.Observe(elapsed.Seconds())
	rep.Replica = s.cfg.ReplicaID
	if cacheable {
		s.results.Put(ck, rep)
	}
	if !traced {
		return rep, nil
	}
	// The cached report must stay trace-free (a later hit belongs to a
	// different trace); echo the ID on a copy.
	cp := *rep
	cp.TraceID = traceID
	return &cp, nil
}
