package cluster

import (
	"context"
	"errors"
	"net/http"
	"sync"

	"halotis/api"
	"halotis/client"
	"halotis/internal/circ"
	"halotis/internal/netfmt"
	"halotis/internal/node"
	"halotis/internal/obs"
	"halotis/internal/obs/flight"
	"halotis/internal/service"
)

// The router face: the same wire API a single halotisd serves, routed
// across the fleet, so the typed client, halotis -remote and every other
// wire caller work unchanged against a cluster (cmd/halotisd -cluster).
// One addition: GET /v1/topology describes the members and placement
// parameters.

// Handler returns the HTTP handler of the cluster router. Requests
// carrying a deadline budget header are shed (504) when the budget is
// already spent and narrowed to it otherwise, so the remaining budget —
// not the original — propagates to the replicas. Requests carrying a
// Halotis-Trace header are traced: the router records its own spans
// (router.request, router.resolve, router.attempt, router.hedge) and
// re-stamps the header toward the replicas so each replica's spans join
// the same trace. Trace before budget, so even budget-shed 504s carry a
// trace ID.
func (c *Cluster) Handler() http.Handler { return c.node.Handler() }

func (c *Cluster) routes() {
	c.node.Handle("POST /v1/circuits", "upload", c.handleUpload)
	c.node.Handle("GET /v1/circuits", "circuits", c.handleList)
	c.node.Handle("GET /v1/circuits/{id}", "circuits", c.handleGet)
	c.node.Handle("DELETE /v1/circuits/{id}", "circuits", c.handleEvict)
	c.node.Handle("POST /v1/simulate", "simulate", c.handleSimulate)
	c.node.Handle("POST /v1/simulate/batch", "batch", c.handleBatch)
	c.node.Handle("GET /healthz", "healthz", c.handleHealth)
	c.node.Handle("GET /v1/topology", "topology", c.handleTopology)
	c.node.Handle("GET /metrics", "metrics", c.handleMetrics)
	c.node.Start()
}

// writeError maps a routing failure onto the wire error contract. Errors
// proxied from a replica keep their status, taxonomy code, Retry-After
// hint and originating replica; the cluster's own failures (every replica
// unavailable) map through the error taxonomy, defaulting to 502. Traced
// requests get their trace ID echoed so the caller can look up what the
// router tried.
func (c *Cluster) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadGateway
	resp := api.ErrorResponseOf(err)
	resp.Code = api.CodeOf(err) // the router's own unclassified failures stay code-less
	var ae *client.APIError
	if errors.As(err, &ae) {
		status = ae.StatusCode
		if ae.Code != "" {
			resp.Code = ae.Code
		}
		resp.Replica = ae.Replica
	} else {
		switch resp.Code {
		case api.CodeInvalidRequest:
			status = http.StatusBadRequest
		case api.CodeNotFound:
			status = http.StatusNotFound
		case api.CodeOverloaded:
			status = http.StatusServiceUnavailable
		case api.CodeCanceled:
			status = http.StatusGatewayTimeout
		}
	}
	c.node.WriteError(w, r, status, resp)
}

// resolveTarget turns a wire target (cached ID or inline netlist) into a
// circuit ID plus, when available, the serialized text that enables
// upload-on-miss. Inline netlists are parsed and hashed locally, never
// compiled — the content hash, and therefore placement, never depends on
// which node computes it — and placed on the top-R replicas before the run
// is routed.
func (c *Cluster) resolveTarget(ctx context.Context, circuit, netlistText, format, name string) (string, *circuitText, error) {
	ctx, sp := obs.Start(ctx, "router.resolve")
	defer sp.End()
	if circuit != "" {
		sp.SetAttr("source", "id")
		return circuit, c.texts.get(circuit), nil
	}
	ckt, err := netfmt.ParseText(netlistText, format, c.lib, name)
	if err != nil {
		err = api.InvalidRequestf("parse netlist: %v", err)
		sp.Fail(err)
		return "", nil, err
	}
	id := circ.ContentHash(ckt)
	t := &circuitText{id: id, text: netlistText, format: format, name: name}
	if known := c.texts.get(id); known == nil {
		sp.SetAttr("source", "inline-placed")
		c.texts.put(t)
		if _, err := c.place(ctx, t); err != nil {
			sp.Fail(err)
			return "", nil, err
		}
	} else {
		sp.SetAttr("source", "inline-known")
	}
	return id, t, nil
}

// badRequest writes a decode/parse failure.
func (c *Cluster) badRequest(w http.ResponseWriter, r *http.Request, status int, msg string) {
	c.node.WriteError(w, r, status, &api.ErrorResponse{Error: msg, Code: api.CodeInvalidRequest})
}

func (c *Cluster) handleUpload(w http.ResponseWriter, r *http.Request) {
	req, err := service.DecodeUploadRequest(http.MaxBytesReader(w, r.Body, c.maxBody))
	if err != nil {
		c.badRequest(w, r, http.StatusBadRequest, err.Error())
		return
	}
	ckt, err := netfmt.ParseText(req.Netlist, req.Format, c.lib, req.Name)
	if err != nil {
		c.badRequest(w, r, http.StatusUnprocessableEntity, "parse netlist: "+err.Error())
		return
	}
	t := &circuitText{id: circ.ContentHash(ckt), text: req.Netlist, format: req.Format, name: req.Name}
	c.texts.put(t)
	resp, err := c.place(r.Context(), t)
	if err != nil {
		c.writeError(w, r, err)
		return
	}
	node.WriteJSON(w, http.StatusOK, resp)
}

func (c *Cluster) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, err := service.DecodeSimRequest(http.MaxBytesReader(w, r.Body, c.maxBody))
	if err != nil {
		c.badRequest(w, r, http.StatusBadRequest, err.Error())
		return
	}
	id, t, err := c.resolveTarget(r.Context(), req.Circuit, req.Netlist, req.Format, "")
	if err != nil {
		c.writeError(w, r, err)
		return
	}
	key, kerr := resultKeyOf(id, req.Request)
	var mu sync.Mutex
	var rep *api.Report
	err = c.withFailover(r.Context(), id, t, nil, func(ctx context.Context, rp *replica) error {
		got, err := rp.c.Simulate(ctx, api.SimRequest{Circuit: id, Request: req.Request})
		if err != nil {
			return err
		}
		mu.Lock()
		rep = got
		mu.Unlock()
		return nil
	})
	if err != nil {
		// Graceful degradation: with every holder unreachable, a cached
		// report for this exact (circuit, request) is still a correct
		// answer — simulations are deterministic — just not a fresh one.
		// Terminal failures and genuine misses keep their errors.
		if kerr == nil && isAvailability(err) && !errors.Is(err, api.ErrCircuitNotFound) {
			if cached, ok := c.results.get(key); ok {
				cached.Degraded = true
				cached.TraceID, _, _ = obs.ContextTrace(r.Context())
				c.met.degradedServes.Add(1)
				if n := flight.NoteFrom(r.Context()); n != nil {
					n.Degraded = true
					n.Cached = true
				}
				node.WriteJSON(w, http.StatusOK, &cached)
				return
			}
		}
		c.writeError(w, r, err)
		return
	}
	if kerr == nil {
		c.results.put(key, *rep)
	}
	node.WriteJSON(w, http.StatusOK, rep)
}

func (c *Cluster) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, err := service.DecodeBatchRequest(http.MaxBytesReader(w, r.Body, c.maxBody))
	if err != nil {
		c.badRequest(w, r, http.StatusBadRequest, err.Error())
		return
	}
	id, t, err := c.resolveTarget(r.Context(), req.Circuit, req.Netlist, req.Format, "")
	if err != nil {
		c.writeError(w, r, err)
		return
	}
	if req.Options != nil && req.Options.AllowPartial {
		reports, errs, err := c.scatterBatchPartial(r.Context(), id, t, req.Requests)
		if err != nil {
			c.writeError(w, r, err)
			return
		}
		resp := api.BatchResponse{Circuit: id, Reports: make([]api.Report, len(reports))}
		for i, rep := range reports {
			if errs[i] != nil {
				if resp.Errors == nil {
					resp.Errors = make([]*api.ErrorResponse, len(reports))
				}
				resp.Errors[i] = api.ErrorResponseOf(errs[i])
				continue
			}
			resp.Reports[i] = *rep
		}
		if resp.Errors != nil {
			if n := flight.NoteFrom(r.Context()); n != nil {
				n.Partial = true
			}
		}
		node.WriteJSON(w, http.StatusOK, resp)
		return
	}
	reports, err := c.scatterBatch(r.Context(), id, t, req.Requests)
	if err != nil {
		c.writeError(w, r, err)
		return
	}
	resp := api.BatchResponse{Circuit: id, Reports: make([]api.Report, len(reports))}
	for i, rep := range reports {
		resp.Reports[i] = *rep
	}
	node.WriteJSON(w, http.StatusOK, resp)
}

// handleList merges the circuit lists of every healthy replica,
// deduplicated by content-hash ID (replication places each circuit on R
// nodes; it is still one circuit).
func (c *Cluster) handleList(w http.ResponseWriter, r *http.Request) {
	seen := make(map[string]bool)
	out := []api.CircuitInfo{}
	for _, rep := range c.replicas {
		if !rep.healthy() {
			continue
		}
		infos, err := rep.c.Circuits(r.Context())
		if err != nil {
			c.noteFailure(r.Context(), rep, err)
			continue
		}
		for _, info := range infos {
			if !seen[info.ID] {
				seen[info.ID] = true
				out = append(out, info)
			}
		}
	}
	node.WriteJSON(w, http.StatusOK, out)
}

func (c *Cluster) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var mu sync.Mutex
	var info *api.CircuitInfo
	err := c.withFailover(r.Context(), id, c.texts.get(id), nil, func(ctx context.Context, rep *replica) error {
		got, err := rep.c.Circuit(ctx, id)
		if err != nil {
			return err
		}
		mu.Lock()
		info = got
		mu.Unlock()
		return nil
	})
	if err != nil {
		c.writeError(w, r, err)
		return
	}
	node.WriteJSON(w, http.StatusOK, info)
}

// handleEvict removes the circuit from every replica (attempting even the
// ones marked down — the mark may be stale, and a refused dial costs
// little) and from the router's text store, so the router itself will not
// repair it back. Eviction is capacity management, not revocation: a
// replica that was genuinely unreachable during the DELETE keeps its copy
// and may serve the ID again after it revives.
func (c *Cluster) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.texts.drop(id)
	evicted := false
	for _, rep := range c.replicas {
		if err := rep.c.Evict(r.Context(), id); err == nil {
			evicted = true
		} else {
			c.noteFailure(r.Context(), rep, err)
		}
	}
	if !evicted {
		c.writeError(w, r, api.NotFoundf("unknown circuit %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleHealth reports the router's own availability plus an aggregate of
// the fleet as of the last probes: "ok" when every replica is healthy,
// "degraded" when some are, "unavailable" when none is. Queue depth and
// workers sum across healthy replicas; the circuit count is the maximum
// over replicas (replication makes a sum overcount).
//
//halotis:noctx aggregates cached probe state; no downstream calls to bound
func (c *Cluster) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := api.HealthResponse{UptimeSeconds: c.node.Uptime().Seconds()}
	healthy := 0
	for _, rep := range c.replicas {
		if !rep.healthy() {
			continue
		}
		healthy++
		rep.mu.Lock()
		h := rep.lastHealth
		rep.mu.Unlock()
		resp.QueueDepth += h.QueueDepth
		resp.Workers += h.Workers
		if h.Circuits > resp.Circuits {
			resp.Circuits = h.Circuits
		}
	}
	switch {
	case healthy == len(c.replicas):
		resp.Status = "ok"
	case healthy > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "unavailable"
	}
	node.WriteJSON(w, http.StatusOK, resp)
}

//halotis:noctx renders in-memory placement state; no downstream work
func (c *Cluster) handleTopology(w http.ResponseWriter, r *http.Request) {
	node.WriteJSON(w, http.StatusOK, c.Topology())
}

//halotis:noctx renders in-memory counters; no downstream work
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.node.WriteMetrics(w, c.writeMetrics)
}
