// Package client is the typed Go client of the halotisd simulation
// service: upload circuits once, run simulations against their
// content-hash IDs, and read service health and metrics. The wire types
// are the shared request/report surface of halotis/api — the same structs
// the server (internal/service) and the in-process Local backend consume —
// so a round trip is lossless by construction, and errors map back onto
// the api error taxonomy (errors.Is against api.ErrCircuitNotFound,
// api.ErrOverloaded, api.ErrCanceled, api.ErrInvalidRequest).
//
//	c := client.New("http://127.0.0.1:8080")
//	up, _ := c.UploadCircuit(ctx, client.UploadRequest{Netlist: benchText, Format: "bench"})
//	rep, _ := c.Simulate(ctx, client.SimRequest{
//	    Circuit: up.ID,
//	    Request: client.Request{
//	        TEnd:     30,
//	        Stimulus: client.Stimulus{"a": {Edges: []client.Edge{{T: 5, Rising: true, Slew: 0.2}}}},
//	    },
//	})
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"halotis/api"
	"halotis/internal/obs"
	"halotis/internal/wire"
)

// Re-exported wire types: the client speaks exactly the shared API.
type (
	UploadRequest   = api.UploadRequest
	UploadResponse  = api.UploadResponse
	CircuitInfo     = api.CircuitInfo
	Edge            = api.Edge
	InputWave       = api.InputWave
	Stimulus        = api.Stimulus
	Request         = api.Request
	Report          = api.Report
	SimRequest      = api.SimRequest
	BatchRequest    = api.BatchRequest
	BatchResponse   = api.BatchResponse
	HealthResponse  = api.HealthResponse
	ErrorResponse   = api.ErrorResponse
	Stats           = api.Stats
	Crossing        = api.Crossing
	Waveform        = api.Waveform
	ActivitySummary = api.ActivitySummary
	PowerSummary    = api.PowerSummary
	TraceResponse   = api.TraceResponse
	TraceSummary    = api.TraceSummary
	SpanInfo        = api.SpanInfo
	KernelProfile   = api.KernelProfile
	WorkerProfile   = api.WorkerProfile
	StatusResponse  = api.StatusResponse
	SeriesResponse  = api.SeriesResponse
	FlightResponse  = api.FlightResponse
)

// APIError is a non-2xx response from the service. It carries the server's
// machine-readable error code and maps onto the api error taxonomy:
// errors.Is(err, api.ErrCircuitNotFound / ErrOverloaded / ErrCanceled /
// ErrInvalidRequest) works on it, and api.RetryAfter(err) recovers the
// overload retry hint.
type APIError struct {
	StatusCode int
	// Code is the taxonomy code from the error body (api.Code*), or ""
	// for bodies that carried none.
	Code    string
	Message string
	// RetryAfter is the server's retry hint on 503 responses.
	RetryAfter time.Duration
	// Replica is the identity of the node the error originated on, when
	// the daemon (or a cluster router proxying it) carries one.
	Replica string
}

func (e *APIError) Error() string {
	who := "halotisd"
	if e.Replica != "" {
		who += "[" + e.Replica + "]"
	}
	return fmt.Sprintf("%s: %d %s: %s", who, e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// As surfaces the overload retry hint: errors.As(err, **api.OverloadedError)
// — and therefore api.RetryAfter(err) — works on 503 responses.
func (e *APIError) As(target any) bool {
	if oe, ok := target.(**api.OverloadedError); ok && e.Is(api.ErrOverloaded) {
		*oe = &api.OverloadedError{RetryAfter: e.RetryAfter, Cause: e}
		return true
	}
	return false
}

// Is maps the wire code (or, for codeless bodies, the HTTP status) onto
// the api error taxonomy sentinels.
func (e *APIError) Is(target error) bool {
	switch target {
	case api.ErrCircuitNotFound:
		return e.Code == api.CodeNotFound || (e.Code == "" && e.StatusCode == http.StatusNotFound)
	case api.ErrOverloaded:
		return e.Code == api.CodeOverloaded || (e.Code == "" && e.StatusCode == http.StatusServiceUnavailable)
	case api.ErrCanceled:
		return e.Code == api.CodeCanceled || (e.Code == "" && e.StatusCode == http.StatusGatewayTimeout)
	case api.ErrInvalidRequest:
		return e.Code == api.CodeInvalidRequest || (e.Code == "" && e.StatusCode == http.StatusBadRequest)
	case api.ErrDeadlineExceeded:
		return e.Code == api.CodeDeadlineExceeded
	}
	return false
}

// Client talks to one halotisd instance.
type Client struct {
	base   string
	http   *http.Client
	retry  RetryPolicy
	traces *obs.Recorder // client-side span recorder; nil unless WithTracing
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithRetry opts the client into bounded retries of overloaded (503)
// responses. Every request the service exposes is idempotent — circuits
// are content-addressed and simulation is a pure function of its request —
// so retrying a refused admission is always safe. Only admission refusals
// (errors matching api.ErrOverloaded) are retried; transport failures and
// every other error class return immediately.
func WithRetry(p RetryPolicy) Option { return func(c *Client) { c.retry = p.withDefaults() } }

// WithTracing opts the client into request tracing: every request that does
// not already carry a trace starts a fresh one, a "client.send" span is
// recorded locally per HTTP attempt (see LocalTrace), and the trace ID is
// propagated in the Halotis-Trace header so the serving nodes record their
// side under the same ID — retrievable there via GET /v1/traces/{id} (the
// Traces/Trace methods). The trace ID of a run comes back in
// Report.TraceID. Without this option requests are still traced when the
// caller's context already carries a trace; tracing-off costs one context
// lookup per request.
func WithTracing() Option {
	return func(c *Client) { c.traces = obs.NewRecorder("client", obs.DefaultTraceCapacity) }
}

// New builds a client for the service at base (e.g. "http://host:8080").
// The default transport keeps enough idle connections per host for highly
// concurrent callers (the DefaultTransport's 2 would re-dial TCP per
// request under fan-out); replace it with WithHTTPClient if needed.
func New(base string, opts ...Option) *Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	c := &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 5 * time.Minute, Transport: tr},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func apiError(resp *http.Response) *APIError {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	var body ErrorResponse
	if data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
		if json.Unmarshal(data, &body) == nil && body.Error != "" {
			apiErr.Message = body.Error
			apiErr.Code = body.Code
			apiErr.Replica = body.Replica
			if body.RetryAfterMs > 0 {
				apiErr.RetryAfter = time.Duration(body.RetryAfterMs) * time.Millisecond
			}
		} else {
			apiErr.Message = strings.TrimSpace(string(data))
		}
	}
	if apiErr.RetryAfter == 0 {
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			apiErr.RetryAfter = time.Duration(s) * time.Second
		}
	}
	return apiErr
}

// do sends one request under the retry policy. in is the request body,
// marshaled to JSON unless it is already bytes; out receives a 2xx answer's
// JSON body, or the body itself when out is a *[]byte. Every attempt sends
// the same bytes.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var data []byte
	switch in := in.(type) {
	case nil:
	case []byte:
		data = in
	default:
		var err error
		if data, err = json.Marshal(in); err != nil {
			return err
		}
	}
	if c.traces != nil {
		if _, _, ok := obs.ContextTrace(ctx); !ok {
			ctx = obs.WithTrace(ctx, c.traces, api.NewTraceID(), "")
		}
	}
	attempt := 0
	for {
		attempt++
		err := c.doOnce(ctx, method, path, data, out)
		if err == nil {
			return nil
		}
		wait, retry := c.retry.next(attempt, err)
		if !retry {
			return err
		}
		if d, ok := ctx.Deadline(); ok && wait >= time.Until(d) {
			// The backoff (possibly a generous server Retry-After) would
			// sleep past the caller's deadline just to fail the next
			// attempt; return the real error now instead.
			return err
		}
		if slept := sleepCtx(ctx, wait); slept != nil {
			// The caller's context died while waiting out the backoff;
			// surface the cancellation, not the stale overload.
			return api.Canceled(slept)
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, data []byte, out any) error {
	var body io.Reader
	if data != nil {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if d, ok := ctx.Deadline(); ok {
		if !d.After(time.Now()) {
			// Shed locally: the budget is gone, so don't put a request on
			// the wire that every downstream hop would immediately shed.
			return api.DeadlineExceededf("client: deadline expired before sending %s %s", method, path)
		}
		api.StampBudget(req.Header, ctx)
	}
	// The "client.send" span brackets one HTTP attempt; its identity goes
	// out in the Halotis-Trace header so the server's spans parent under
	// it. Untraced contexts skip all of this at the cost of one context
	// lookup (sp is nil and the second lookup fails fast).
	sctx, sp := obs.Start(ctx, "client.send")
	if sp != nil {
		sp.SetAttr("method", method)
		sp.SetAttr("path", path)
	}
	if tid, sid, ok := obs.ContextTrace(sctx); ok {
		api.StampTrace(req.Header, tid, sid)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		sp.FailOrCancel(ctx, err)
		sp.End()
		// A transport failure caused by the caller's context maps onto
		// the taxonomy like a server-side cancellation would.
		if ctx.Err() != nil {
			return api.Canceled(err)
		}
		return err
	}
	defer resp.Body.Close()
	if sp != nil {
		sp.SetAttr("status", strconv.Itoa(resp.StatusCode))
		sp.End()
	}
	if resp.StatusCode >= 400 {
		return apiError(resp)
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*out, err = io.ReadAll(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// bodyCap is the capacity a request body is encoded into: a simulate
// request of a few dozen driven inputs fits, a larger one grows.
const bodyCap = 1 << 10

// UploadCircuit registers a netlist with the service and returns its
// content-hash ID (idempotent: re-uploads of equivalent content return the
// same ID with Cached set).
func (c *Client) UploadCircuit(ctx context.Context, req UploadRequest) (*UploadResponse, error) {
	var resp UploadResponse
	if err := c.do(ctx, http.MethodPost, "/v1/circuits", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Simulate runs one request.
func (c *Client) Simulate(ctx context.Context, req SimRequest) (*Report, error) {
	body, err := wire.AppendSimRequest(make([]byte, 0, bodyCap), &req)
	if err != nil {
		return nil, err
	}
	data, err := c.SimulateJSON(ctx, body)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := wire.DecodeReport(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// SimulateJSON runs one request given as the JSON body of a SimRequest
// and returns the report's JSON body exactly as the service wrote it. It
// behaves as Simulate does (retries, budget, tracing, APIError), but
// neither encodes the request nor decodes the report: a proxy relays both
// as bytes.
func (c *Client) SimulateJSON(ctx context.Context, body []byte) ([]byte, error) {
	var resp []byte
	if err := c.do(ctx, http.MethodPost, "/v1/simulate", body, &resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// SimulateBatch runs many requests against one circuit; the server fans
// them out across its worker pool.
func (c *Client) SimulateBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	body, err := wire.AppendBatchRequest(make([]byte, 0, bodyCap), &req)
	if err != nil {
		return nil, err
	}
	var data []byte
	if err := c.do(ctx, http.MethodPost, "/v1/simulate/batch", body, &data); err != nil {
		return nil, err
	}
	var resp BatchResponse
	if err := wire.DecodeBatchResponse(data, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Circuits lists the cached circuits in most-recently-used order.
func (c *Client) Circuits(ctx context.Context) ([]CircuitInfo, error) {
	var resp []CircuitInfo
	if err := c.do(ctx, http.MethodGet, "/v1/circuits", nil, &resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Circuit fetches one cached circuit's description by ID.
func (c *Client) Circuit(ctx context.Context, id string) (*CircuitInfo, error) {
	var resp CircuitInfo
	if err := c.do(ctx, http.MethodGet, "/v1/circuits/"+url.PathEscape(id), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Evict removes a cached circuit by ID.
func (c *Client) Evict(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/circuits/"+url.PathEscape(id), nil, nil)
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var resp HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Probe is the health-check primitive the cluster layer's prober uses: one
// GET /healthz without the client's retry policy (a prober must observe
// overload and death promptly, not paper over them), returning the body on
// success.
func (c *Client) Probe(ctx context.Context) (*HealthResponse, error) {
	var resp HealthResponse
	if err := c.doOnce(ctx, http.MethodGet, "/healthz", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Topology fetches a cluster router's GET /v1/topology: the member
// replicas, their health, and the replication factor requests are placed
// with. Single daemons do not serve it (404).
func (c *Client) Topology(ctx context.Context) (*api.TopologyResponse, error) {
	var resp api.TopologyResponse
	if err := c.do(ctx, http.MethodGet, "/v1/topology", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Traces lists the traces the serving node retains (newest first), from
// its GET /v1/traces.
func (c *Client) Traces(ctx context.Context) ([]TraceSummary, error) {
	var resp []TraceSummary
	if err := c.do(ctx, http.MethodGet, "/v1/traces", nil, &resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Trace fetches one trace's spans from the serving node's GET
// /v1/traces/{id}. Each node serves only its own spans; a cross-node view
// of a routed request joins this response with the router's.
func (c *Client) Trace(ctx context.Context, id string) (*TraceResponse, error) {
	var resp TraceResponse
	if err := c.do(ctx, http.MethodGet, "/v1/traces/"+url.PathEscape(id), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// LocalTraces summarizes the traces recorded on the client side
// (WithTracing), newest first.
func (c *Client) LocalTraces() []TraceSummary {
	if c.traces == nil {
		return nil
	}
	return c.traces.Traces()
}

// LocalTrace returns the client-side spans ("client.send" attempts) of one
// trace recorded under WithTracing.
func (c *Client) LocalTrace(id string) (TraceResponse, bool) {
	if c.traces == nil {
		return TraceResponse{}, false
	}
	return c.traces.Trace(id)
}

// Status fetches the serving node's GET /v1/status: SLO burn-rate
// windows, throughput and latency gauges, and pinned exemplar trace IDs.
// On a router it additionally carries the fleet rollup.
func (c *Client) Status(ctx context.Context) (*StatusResponse, error) {
	var resp StatusResponse
	if err := c.do(ctx, http.MethodGet, "/v1/status", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Series fetches one metric's time-series from the serving node's GET
// /v1/series (the metric name index when metric is empty). A positive
// window limits the points to that trailing span; zero means the full
// retention.
func (c *Client) Series(ctx context.Context, metric string, window time.Duration) (*SeriesResponse, error) {
	q := url.Values{}
	if metric != "" {
		q.Set("metric", metric)
	}
	if window > 0 {
		q.Set("window", window.String())
	}
	path := "/v1/series"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var resp SeriesResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// FlightRecords fetches the serving node's GET /v1/flightrecorder: the
// recent request records, newest first (capped at limit when positive),
// plus the pinned exemplar trace IDs.
func (c *Client) FlightRecords(ctx context.Context, limit int) (*FlightResponse, error) {
	path := "/v1/flightrecorder"
	if limit > 0 {
		path += "?n=" + strconv.Itoa(limit)
	}
	var resp FlightResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Base returns the base URL the client was built with.
func (c *Client) Base() string { return c.base }

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode >= 400 {
		return "", &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	return string(data), nil
}
