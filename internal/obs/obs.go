// Package obs is the observability layer of the halotis stack: a
// lightweight request-tracing span recorder, a dependency-free fixed-bucket
// histogram rendered in Prometheus text format, Go runtime gauges, a
// structured-logging constructor, and a minimal Prometheus text-format
// validator used by the metrics tests.
//
// The design constraint throughout is that the disabled paths cost nothing
// measurable: an untraced request pays one context lookup, a histogram
// observation is a few atomic adds, and kernel profiling is opt-in per run
// (see sim.Profile). The tracing wire types live in halotis/api so internal
// packages never leak into exported signatures.
package obs

import (
	"context"
	"sync"
	"time"

	"halotis/api"
)

// DefaultTraceCapacity bounds the recorder ring when the caller does not.
const DefaultTraceCapacity = 256

// maxSpansPerTrace bounds one trace's span list so a pathological request
// (a huge batch, a retry storm) cannot grow a trace without bound; spans
// beyond it are counted as dropped.
const maxSpansPerTrace = 256

// Recorder accumulates finished spans into a bounded in-memory ring of
// traces: the newest traces win, each trace keeps at most maxSpansPerTrace
// spans, and the whole structure is safe for concurrent use. One Recorder
// per node; GET /v1/traces serves its contents.
type Recorder struct {
	node string
	cap  int

	mu       sync.Mutex
	traces   map[string]*traceBuf
	order    []string // trace IDs in arrival order; unpinned evict first
	pinned   map[string]bool
	pinOrder []string // pinned IDs in pin order; pinOrder[0] unpins first
	maxPin   int

	started uint64 // externally traced requests ever started
	spans   uint64 // spans ever recorded
	dropped uint64 // spans dropped by the per-trace bound
}

type traceBuf struct {
	spans    []api.SpanInfo
	internal bool // self-assigned trace (flight-recorder exemplar candidate)
}

// NewRecorder builds a recorder identified as node, retaining up to
// capacity traces (DefaultTraceCapacity when capacity <= 0). Up to a
// quarter of the capacity can be pinned as anomaly exemplars exempt from
// FIFO eviction.
func NewRecorder(node string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	maxPin := capacity / 4
	if maxPin < 1 {
		maxPin = 1
	}
	return &Recorder{
		node:   node,
		cap:    capacity,
		traces: make(map[string]*traceBuf, capacity),
		pinned: make(map[string]bool, maxPin),
		maxPin: maxPin,
	}
}

// record files one finished span under its trace, evicting the oldest
// unpinned trace when the ring is full. internal marks traces the node
// assigned to itself (flight-recorder capture on untraced requests): they
// are fetchable by ID but hidden from the trace listing and the
// traces-started counter, which count only externally traced requests.
func (r *Recorder) record(s api.SpanInfo, internal bool) {
	if r == nil {
		return
	}
	s.Node = r.node
	r.mu.Lock()
	tb := r.traces[s.TraceID]
	if tb == nil {
		if len(r.order) >= r.cap {
			r.evictLocked()
		}
		tb = &traceBuf{internal: internal}
		r.traces[s.TraceID] = tb
		r.order = append(r.order, s.TraceID)
		if !internal {
			r.started++
		}
	}
	if len(tb.spans) >= maxSpansPerTrace {
		r.dropped++
	} else {
		tb.spans = append(tb.spans, s)
		r.spans++
	}
	r.mu.Unlock()
}

// evictLocked removes the oldest unpinned trace; if every retained trace
// is pinned (capacity smaller than the pin budget), the oldest pin is
// released and evicted so the ring keeps turning. Caller holds r.mu.
func (r *Recorder) evictLocked() {
	evict := -1
	for i, id := range r.order {
		if !r.pinned[id] {
			evict = i
			break
		}
	}
	if evict == -1 {
		r.unpinLocked(r.order[0])
		evict = 0
	}
	delete(r.traces, r.order[evict])
	r.order = append(r.order[:evict], r.order[evict+1:]...)
}

func (r *Recorder) unpinLocked(id string) {
	if !r.pinned[id] {
		return
	}
	delete(r.pinned, id)
	for i, p := range r.pinOrder {
		if p == id {
			r.pinOrder = append(r.pinOrder[:i], r.pinOrder[i+1:]...)
			break
		}
	}
}

// Pin exempts the trace from FIFO eviction so it survives as an anomaly
// exemplar. When the pin budget (a quarter of capacity) is full, the
// oldest pin is released — exemplars rotate rather than fossilize.
// Pinning a trace that has not been recorded yet is allowed: the pin
// applies when its spans arrive.
func (r *Recorder) Pin(id string) {
	if r == nil || id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pinned[id] {
		return
	}
	if len(r.pinOrder) >= r.maxPin {
		r.unpinLocked(r.pinOrder[0])
	}
	r.pinned[id] = true
	r.pinOrder = append(r.pinOrder, id)
}

// Pinned lists the pinned trace IDs that have recorded spans, newest pin
// first — the exemplar list /v1/status and /v1/flightrecorder expose.
func (r *Recorder) Pinned() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.pinOrder))
	for i := len(r.pinOrder) - 1; i >= 0; i-- {
		id := r.pinOrder[i]
		if tb := r.traces[id]; tb != nil && len(tb.spans) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// Trace returns every span recorded for the trace, in end order.
func (r *Recorder) Trace(id string) (api.TraceResponse, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tb := r.traces[id]
	if tb == nil {
		return api.TraceResponse{}, false
	}
	out := api.TraceResponse{TraceID: id, Spans: make([]api.SpanInfo, len(tb.spans))}
	copy(out.Spans, tb.spans)
	return out, true
}

// Traces summarizes the retained externally traced requests, newest
// first. Internal (self-assigned) traces are omitted — they are reachable
// by ID via flight-recorder exemplars, not by browsing.
func (r *Recorder) Traces() []api.TraceSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]api.TraceSummary, 0, len(r.order))
	for i := len(r.order) - 1; i >= 0; i-- {
		id := r.order[i]
		tb := r.traces[id]
		if tb == nil || len(tb.spans) == 0 || tb.internal {
			continue
		}
		sum := api.TraceSummary{TraceID: id, Spans: len(tb.spans)}
		var end int64
		for _, s := range tb.spans {
			if sum.StartUnixNs == 0 || s.StartUnixNs < sum.StartUnixNs {
				sum.StartUnixNs = s.StartUnixNs
				sum.Root = s.Name
			}
			if e := s.StartUnixNs + s.DurationNs; e > end {
				end = e
			}
		}
		sum.DurationNs = end - sum.StartUnixNs
		out = append(out, sum)
	}
	return out
}

// Stats reports the recorder's lifetime counters for /metrics: traces ever
// started, spans ever recorded, spans dropped by the per-trace bound, and
// traces currently retained.
func (r *Recorder) Stats() (started, spans, dropped uint64, retained int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.started, r.spans, r.dropped, len(r.traces)
}

// traceCtx is the context payload of an active trace: the recorder to file
// spans into and the current span (the parent of anything started next).
type traceCtx struct {
	rec      *Recorder
	traceID  string
	spanID   string
	internal bool
}

type ctxKey struct{}

// WithTrace activates tracing on the context: spans started under it file
// into rec with the given trace identity. parentSpanID may be empty (a
// root arriving with no upstream span).
func WithTrace(ctx context.Context, rec *Recorder, traceID, parentSpanID string) context.Context {
	if traceID == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &traceCtx{rec: rec, traceID: traceID, spanID: parentSpanID})
}

// WithInternalTrace activates tracing with a node-assigned identity on a
// request that arrived untraced, so the flight recorder can pin its span
// tree if it turns out anomalous. Internal traces do not surface in
// ContextTrace (response headers and bodies stay as if untraced), the
// trace listing, or the traces-started counter; they are reachable only
// by ID.
func WithInternalTrace(ctx context.Context, rec *Recorder, traceID string) context.Context {
	if traceID == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &traceCtx{rec: rec, traceID: traceID, internal: true})
}

// ContextTrace returns the context's trace identity — the trace ID and the
// current span ID — for propagation (the client stamps them into the
// Halotis-Trace header). ok is false on untraced contexts; the check is
// one context lookup, which is the entire cost of tracing-off.
func ContextTrace(ctx context.Context) (traceID, spanID string, ok bool) {
	tc, _ := ctx.Value(ctxKey{}).(*traceCtx)
	if tc == nil || tc.internal {
		return "", "", false
	}
	return tc.traceID, tc.spanID, true
}

// ContextTraceAny returns the context's trace ID whether the trace is
// external or internal — the flight recorder stamps it into records so
// pinned exemplars resolve regardless of who assigned the identity.
func ContextTraceAny(ctx context.Context) (traceID string, ok bool) {
	tc, _ := ctx.Value(ctxKey{}).(*traceCtx)
	if tc == nil {
		return "", false
	}
	return tc.traceID, true
}

// Span is one in-flight traced phase; created by Start, finished by End.
// The nil Span (what Start returns on untraced contexts) is a no-op on
// every method, so call sites need no conditionals.
type Span struct {
	tc    *traceCtx
	start time.Time
	info  api.SpanInfo
}

// Start begins a span named name under the context's trace and returns a
// derived context under which the span is the parent. On untraced contexts
// it returns (ctx, nil) and costs one context lookup.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	tc, _ := ctx.Value(ctxKey{}).(*traceCtx)
	if tc == nil {
		return ctx, nil
	}
	child := &traceCtx{rec: tc.rec, traceID: tc.traceID, spanID: api.NewSpanID(), internal: tc.internal}
	sp := &Span{
		tc:    child,
		start: time.Now(),
		info: api.SpanInfo{
			TraceID:  tc.traceID,
			SpanID:   child.spanID,
			ParentID: tc.spanID,
			Name:     name,
		},
	}
	return context.WithValue(ctx, ctxKey{}, child), sp
}

// SetAttr attaches a key/value to the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.info.Attrs == nil {
		s.info.Attrs = make(map[string]string, 4)
	}
	s.info.Attrs[k] = v
}

// Fail marks the span as ended in error. A nil err is ignored, so call
// sites can pass their error variable unconditionally.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.info.Error = err.Error()
}

// FailOrCancel records how work run under ctx ended in err: as canceled
// (attribute canceled=true, no error) when ctx is done — abandoned work,
// such as a hedge's loser, did not fail — and as Fail(err) otherwise.
func (s *Span) FailOrCancel(ctx context.Context, err error) {
	if s == nil || err == nil {
		return
	}
	if ctx.Err() != nil {
		s.SetAttr("canceled", "true")
		return
	}
	s.Fail(err)
}

// End finishes the span and files it with the recorder.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.info.StartUnixNs = s.start.UnixNano()
	s.info.DurationNs = time.Since(s.start).Nanoseconds()
	s.tc.rec.record(s.info, s.tc.internal)
}

// Record files a span whose bounds were measured externally (a queue wait
// observed by the code that did the waiting) without deriving a context.
// No-op on untraced contexts.
func Record(ctx context.Context, name string, start time.Time, d time.Duration, err error) {
	tc, _ := ctx.Value(ctxKey{}).(*traceCtx)
	if tc == nil {
		return
	}
	info := api.SpanInfo{
		TraceID:     tc.traceID,
		SpanID:      api.NewSpanID(),
		ParentID:    tc.spanID,
		Name:        name,
		StartUnixNs: start.UnixNano(),
		DurationNs:  d.Nanoseconds(),
	}
	if err != nil {
		info.Error = err.Error()
	}
	tc.rec.record(info, tc.internal)
}
