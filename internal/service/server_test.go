package service_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"halotis/api"
	"halotis/client"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netfmt"
	"halotis/internal/service"
	"halotis/internal/sim"
	"halotis/internal/stimuli"
)

// newTestService spins up a service over httptest and returns the server
// internals plus a typed client.
func newTestService(t *testing.T, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, client.New(ts.URL)
}

// c17WireStimulus drives the c17 inputs on the wire types.
func c17WireStimulus() client.Stimulus {
	st := client.Stimulus{}
	for i, in := range []string{"1", "2", "3", "6", "7"} {
		st[in] = client.InputWave{Edges: []client.Edge{
			{T: 2 + float64(i), Rising: true, Slew: 0.2},
			{T: 12 + float64(i), Rising: false, Slew: 0.2},
		}}
	}
	return st
}

func c17Request(st client.Stimulus, tEnd float64) client.Request {
	return client.Request{TEnd: tEnd, Stimulus: st}
}

// TestServiceRoundTrip is the acceptance path: upload a .bench circuit
// once, run N simulations against its ID, and require that no
// recompilation happened on the hits and that every result is bit-identical
// to the in-process engine.
func TestServiceRoundTrip(t *testing.T) {
	s, c := newTestService(t, service.Config{})
	ctx := context.Background()

	up, err := c.UploadCircuit(ctx, client.UploadRequest{Netlist: netfmt.C17Bench(), Format: "bench", Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	if up.Cached {
		t.Error("first upload reported cached")
	}
	if up.Gates != 6 {
		t.Errorf("c17 gates = %d, want 6", up.Gates)
	}

	// Reference: the same workload through the in-process engine.
	lib := cellib.Default06()
	ckt, err := netfmt.ParseBench(strings.NewReader(netfmt.C17Bench()), lib)
	if err != nil {
		t.Fatal(err)
	}
	wire := c17WireStimulus()
	ref, err := sim.New(ckt, sim.Options{}).Run(wire.ToSim(), 30)
	if err != nil {
		t.Fatal(err)
	}

	const n = 20
	for i := 0; i < n; i++ {
		res, err := c.Simulate(ctx, client.SimRequest{Circuit: up.ID, Request: c17Request(wire, 30)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.EventsProcessed != ref.Stats.EventsProcessed ||
			res.Stats.Transitions != ref.Stats.Transitions ||
			res.Stats.EventsFiltered != ref.Stats.EventsFiltered {
			t.Fatalf("run %d diverged from in-process engine: %+v vs %+v", i, res.Stats, ref.Stats)
		}
		for name, want := range ref.OutputLogic(30, lib.VDD/2) {
			if got := res.Outputs[name]; got != want {
				t.Fatalf("run %d output %q = %v, want %v", i, name, got, want)
			}
		}
		if wantCached := i > 0; res.Cached != wantCached {
			t.Errorf("run %d cached = %v, want %v", i, res.Cached, wantCached)
		}
	}

	// Recompilation avoided on hits: exactly one compile for upload + N runs.
	cs := s.CacheStats()
	if cs.Compiles != 1 {
		t.Errorf("compiles = %d after upload + %d runs, want 1", cs.Compiles, n)
	}
	if rate := cs.HitRate(); rate <= 0.9 {
		t.Errorf("cache hit rate = %.3f, want > 0.9", rate)
	}

	// The repeated identical requests hit the result cache: one kernel
	// run, n-1 result-cache hits.
	rs := s.ResultCacheStats()
	if rs.Hits != n-1 || rs.Misses != 1 {
		t.Errorf("result cache hits/misses = %d/%d after %d identical requests, want %d/1", rs.Hits, rs.Misses, n, n-1)
	}
}

// TestServiceResultCacheKeying pins what the result-cache key includes:
// changing the stimulus, the model, the horizon or the output selectors
// must miss; repeating any exact request must hit.
func TestServiceResultCacheKeying(t *testing.T) {
	s, c := newTestService(t, service.Config{})
	ctx := context.Background()
	up, err := c.UploadCircuit(ctx, client.UploadRequest{Netlist: netfmt.C17Bench(), Format: "bench"})
	if err != nil {
		t.Fatal(err)
	}
	st := c17WireStimulus()

	variants := []client.Request{
		{TEnd: 30, Stimulus: st},
		{TEnd: 30, Model: "cdm", Stimulus: st},
		{TEnd: 40, Stimulus: st},
		{TEnd: 30, Stimulus: st, Activity: true},
		{TEnd: 30, Stimulus: st, Waveforms: []string{"22"}},
		{TEnd: 30, Stimulus: st, Waveforms: []string{"22", "23"}},
	}
	for i, req := range variants {
		rep, err := c.Simulate(ctx, client.SimRequest{Circuit: up.ID, Request: req})
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if rep.Cached {
			t.Errorf("variant %d: first run reported cached", i)
		}
	}
	if rs := s.ResultCacheStats(); rs.Hits != 0 || rs.Misses != uint64(len(variants)) {
		t.Errorf("after distinct variants: hits/misses = %d/%d, want 0/%d", rs.Hits, rs.Misses, len(variants))
	}
	for i, req := range variants {
		rep, err := c.Simulate(ctx, client.SimRequest{Circuit: up.ID, Request: req})
		if err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
		if !rep.Cached {
			t.Errorf("repeat %d: not served from result cache", i)
		}
	}
	if rs := s.ResultCacheStats(); rs.Hits != uint64(len(variants)) {
		t.Errorf("after repeats: hits = %d, want %d", rs.Hits, len(variants))
	}

	// A timeout change does NOT change the key (it cannot change the
	// deterministic outcome).
	rep, err := c.Simulate(ctx, client.SimRequest{Circuit: up.ID, Request: client.Request{TEnd: 30, Stimulus: st, TimeoutMs: 60000}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cached {
		t.Error("timeout_ms variation missed the result cache")
	}
}

// TestServiceResultCacheDisabled pins the opt-out.
func TestServiceResultCacheDisabled(t *testing.T) {
	s, c := newTestService(t, service.Config{ResultCacheSize: -1})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		rep, err := c.Simulate(ctx, client.SimRequest{Netlist: netfmt.C17Bench(), Request: c17Request(c17WireStimulus(), 30)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cached {
			t.Fatal("disabled result cache served a hit")
		}
	}
	if rs := s.ResultCacheStats(); rs.Hits != 0 || rs.Entries != 0 {
		t.Errorf("disabled cache stats = %+v, want empty", rs)
	}
}

func TestServiceInlineNetlistAndModels(t *testing.T) {
	_, c := newTestService(t, service.Config{})
	ctx := context.Background()
	for _, model := range []string{"ddm", "cdm"} {
		req := c17Request(c17WireStimulus(), 30)
		req.Model = model
		res, err := c.Simulate(ctx, client.SimRequest{Netlist: netfmt.C17Bench(), Format: "auto", Request: req})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if res.Model != model {
			t.Errorf("model = %q, want %q", res.Model, model)
		}
		if res.Stats.EventsProcessed == 0 {
			t.Errorf("%s: no events processed", model)
		}
	}
}

func TestServiceBatchMatchesSingles(t *testing.T) {
	_, c := newTestService(t, service.Config{})
	ctx := context.Background()
	up, err := c.UploadCircuit(ctx, client.UploadRequest{Netlist: netfmt.C17Bench(), Format: "bench"})
	if err != nil {
		t.Fatal(err)
	}

	reqs := make([]client.Request, 6)
	for i := range reqs {
		st := c17WireStimulus()
		// Stagger one input per request so the runs differ.
		w := st["1"]
		w.Edges[0].T += float64(i)
		st["1"] = w
		reqs[i] = c17Request(st, 40)
	}
	batch, err := c.SimulateBatch(ctx, client.BatchRequest{Circuit: up.ID, Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Reports) != len(reqs) {
		t.Fatalf("batch returned %d reports, want %d", len(batch.Reports), len(reqs))
	}
	for i, req := range reqs {
		single, err := c.Simulate(ctx, client.SimRequest{Circuit: up.ID, Request: req})
		if err != nil {
			t.Fatal(err)
		}
		if batch.Reports[i].Stats != single.Stats {
			t.Errorf("request %d: batch stats %+v != single stats %+v", i, batch.Reports[i].Stats, single.Stats)
		}
	}
}

// multBatch builds a batch of kernel-heavy, mutually distinct requests
// over the 4x4 multiplier (each runs for milliseconds, so jobs genuinely
// overlap in time when fanned out).
func multBatch(t *testing.T, jobs, vectors int) (netlistText string, reqs []client.Request) {
	t.Helper()
	mult, err := circuits.Multiplier(cellib.Default06(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := netfmt.WriteCircuit(&text, mult); err != nil {
		t.Fatal(err)
	}
	reqs = make([]client.Request, jobs)
	for i := range reqs {
		pairs := make([]stimuli.MultiplierPair, vectors)
		for v := range pairs {
			pairs[v] = stimuli.MultiplierPair{A: uint64((v*7 + i) % 16), B: uint64((v*13 + 3*i + 1) % 16)}
		}
		st, err := stimuli.MultiplierSequence(pairs, 4, 4, 5.0, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = client.Request{TEnd: float64(vectors)*5 + 10, Stimulus: api.FromSim(st)}
	}
	return text.String(), reqs
}

// TestServiceBatchFansOut pins the batch endpoint's parallel execution:
// with >= 4 workers, every job of a batch occupies its own queue slot and
// the jobs overlap on the worker pool (the in-flight high-water mark
// exceeds one) instead of draining sequentially through one worker slot.
// The same batch on a 1-worker daemon is the control: its high-water mark
// is exactly one. Both are counts, not wall times, so host load cannot
// flip the verdict.
func TestServiceBatchFansOut(t *testing.T) {
	// The container CI runs on one CPU; four runnable threads still prove
	// overlap (the preempting scheduler interleaves the ms-scale jobs).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.NumCPU())))

	const jobs = 8
	text, reqs := multBatch(t, jobs, 250)
	ctx := context.Background()

	// runBatch drives the batch through a fresh daemon with the given
	// worker count and returns its queue stats once every job counted.
	runBatch := func(workers int) service.QueueStats {
		s, c := newTestService(t, service.Config{Workers: workers, QueueDepth: 64})
		up, err := c.UploadCircuit(ctx, client.UploadRequest{Netlist: text, Format: "net"})
		if err != nil {
			t.Fatal(err)
		}
		executedBefore := s.QueueStats().Executed
		batch, err := c.SimulateBatch(ctx, client.BatchRequest{Circuit: up.ID, Requests: reqs})
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Reports) != jobs {
			t.Fatalf("%d workers: batch returned %d reports, want %d", workers, len(batch.Reports), jobs)
		}
		// resolve job + one job per request, every one through the queue.
		// The executed counter bumps after the job's result is delivered,
		// so the response can arrive a beat before the final increment —
		// poll briefly.
		qs := s.QueueStats()
		for wait := time.Millisecond; qs.Executed-executedBefore < jobs+1 && wait < time.Second; wait *= 2 {
			time.Sleep(wait)
			qs = s.QueueStats()
		}
		if got := qs.Executed - executedBefore; got != jobs+1 {
			t.Errorf("%d workers: batch executed %d queue jobs, want %d (1 resolve + %d runs)", workers, got, jobs+1, jobs)
		}
		return qs
	}

	if qs := runBatch(1); qs.PeakInFlight != 1 {
		t.Errorf("peak in-flight = %d during a %d-job batch on 1 worker, want exactly 1", qs.PeakInFlight, jobs)
	}
	if qs := runBatch(4); qs.PeakInFlight < 2 {
		t.Errorf("peak in-flight = %d during a %d-job batch on 4 workers, want >= 2 (sequential execution?)", qs.PeakInFlight, jobs)
	}
}

// TestServiceBatchReportsRootCause pins the failed-batch error choice:
// when one job fails on its own merits and its cancellation aborts
// sibling jobs, the response carries the root cause (typed, with its
// request index), not a sibling's secondary cancellation — whatever order
// the scheduler ran the jobs in.
func TestServiceBatchReportsRootCause(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.NumCPU())))
	_, c := newTestService(t, service.Config{Workers: 4, QueueDepth: 64})
	ctx := context.Background()

	text, reqs := multBatch(t, 3, 250) // three kernel-heavy valid jobs
	up, err := c.UploadCircuit(ctx, client.UploadRequest{Netlist: text, Format: "net"})
	if err != nil {
		t.Fatal(err)
	}
	bad := client.Request{TEnd: 30, Waveforms: []string{"no_such_net"}, Stimulus: client.Stimulus{}}
	reqs = append(reqs, bad) // fails fast in Prepare while siblings run

	_, err = c.SimulateBatch(ctx, client.BatchRequest{Circuit: up.ID, Requests: reqs})
	if err == nil {
		t.Fatal("batch with an invalid request succeeded")
	}
	if !errors.Is(err, api.ErrInvalidRequest) {
		t.Fatalf("err = %v, want the root-cause ErrInvalidRequest (not a secondary cancellation)", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 422 {
		t.Fatalf("err = %v, want 422", err)
	}
	if !strings.Contains(apiErr.Message, "requests[3]") {
		t.Errorf("error %q does not name the failing request index", apiErr.Message)
	}
}

func TestServiceReturnOptions(t *testing.T) {
	_, c := newTestService(t, service.Config{})
	ctx := context.Background()
	req := c17Request(c17WireStimulus(), 30)
	req.Waveforms = []string{"22", "23"}
	req.Activity = true
	req.Power = true
	req.VCD = true
	res, err := c.Simulate(ctx, client.SimRequest{Netlist: netfmt.C17Bench(), Request: req})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Waveforms) != 2 {
		t.Errorf("waveforms = %d entries, want 2", len(res.Waveforms))
	}
	for name, wf := range res.Waveforms {
		if len(wf.Crossings) == 0 {
			t.Errorf("waveform %q has no crossings", name)
		}
	}
	if res.Activity == nil || res.Activity.Transitions == 0 {
		t.Errorf("activity missing or empty: %+v", res.Activity)
	}
	if res.Power == nil || res.Power.TotalEnergyFJ <= 0 {
		t.Errorf("power missing or empty: %+v", res.Power)
	}
	if !strings.Contains(res.VCD, "$enddefinitions") {
		t.Error("VCD payload missing header")
	}

	// Unknown waveform net is a typed client error, not a crash.
	bad := c17Request(c17WireStimulus(), 30)
	bad.Waveforms = []string{"no_such_net"}
	_, err = c.Simulate(ctx, client.SimRequest{Netlist: netfmt.C17Bench(), Request: bad})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 422 {
		t.Fatalf("unknown net: err = %v, want 422", err)
	}
	if !errors.Is(err, api.ErrInvalidRequest) {
		t.Fatalf("unknown net: err = %v, want ErrInvalidRequest", err)
	}
}

func TestServiceCircuitRegistry(t *testing.T) {
	_, c := newTestService(t, service.Config{})
	ctx := context.Background()
	up, err := c.UploadCircuit(ctx, client.UploadRequest{Netlist: netfmt.C17Bench(), Format: "bench", Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}

	list, err := c.Circuits(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != up.ID {
		t.Fatalf("list = %+v, want the uploaded circuit", list)
	}
	info, err := c.Circuit(ctx, up.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "c17" || len(info.Inputs) != 5 {
		t.Errorf("info = %+v", info)
	}

	if err := c.Evict(ctx, up.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Circuit(ctx, up.ID); err == nil {
		t.Fatal("circuit still present after evict")
	}
	if err := c.Evict(ctx, up.ID); !errors.Is(err, api.ErrCircuitNotFound) {
		t.Fatalf("double evict: err = %v, want ErrCircuitNotFound", err)
	}

	// Simulating against the evicted ID is a typed not-found, not a
	// recompile.
	_, err = c.Simulate(ctx, client.SimRequest{Circuit: up.ID, Request: c17Request(c17WireStimulus(), 30)})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 || !errors.Is(err, api.ErrCircuitNotFound) {
		t.Fatalf("simulate on evicted: err = %v, want 404 ErrCircuitNotFound", err)
	}
}

func TestServiceValidationErrors(t *testing.T) {
	_, c := newTestService(t, service.Config{})
	ctx := context.Background()
	cases := []client.SimRequest{
		{Request: client.Request{TEnd: 30}},                               // no target
		{Circuit: "x", Netlist: "y", Request: client.Request{TEnd: 30}},   // both targets
		{Circuit: "x", Request: client.Request{TEnd: 0}},                  // bad horizon
		{Circuit: "x", Request: client.Request{TEnd: 30, Model: "spice"}}, // bad model
	}
	for i, req := range cases {
		_, err := c.Simulate(ctx, req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
			t.Errorf("case %d: err = %v, want 400", i, err)
		}
		if !errors.Is(err, api.ErrInvalidRequest) {
			t.Errorf("case %d: err = %v, want ErrInvalidRequest", i, err)
		}
	}

	// Malformed netlist text is 422, typed invalid.
	_, err := c.Simulate(ctx, client.SimRequest{Netlist: "gate g BOGUS y a\n", Format: "net", Request: client.Request{TEnd: 30}})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 422 || !errors.Is(err, api.ErrInvalidRequest) {
		t.Fatalf("bad netlist: err = %v, want 422 ErrInvalidRequest", err)
	}
}

// TestServiceMaxEventsCap pins the server-side bound on the client's
// max_events knob: the operator's cap beats the request.
func TestServiceMaxEventsCap(t *testing.T) {
	_, c := newTestService(t, service.Config{MaxEvents: 10}) // c17 workload needs ~24
	ctx := context.Background()
	req := c17Request(c17WireStimulus(), 30)
	req.MaxEvents = 1 << 60
	_, err := c.Simulate(ctx, client.SimRequest{Netlist: netfmt.C17Bench(), Request: req})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 422 || !strings.Contains(apiErr.Message, "event limit") {
		t.Fatalf("capped run: err = %v, want 422 event-limit error", err)
	}
}

// TestServiceTimeoutCapAppliesToHugeTimeouts pins the overflow behavior of
// per-request timeouts: a timeout_ms too large for time.Duration must not
// defeat the operator's MaxTimeout cap.
func TestServiceTimeoutCapAppliesToHugeTimeouts(t *testing.T) {
	_, c := newTestService(t, service.Config{MaxTimeout: time.Nanosecond})
	ctx := context.Background()
	req := c17Request(c17WireStimulus(), 30)
	req.TimeoutMs = 1e13
	_, err := c.Simulate(ctx, client.SimRequest{Netlist: netfmt.C17Bench(), Request: req})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 504 {
		t.Fatalf("huge timeout_ms under 1ns MaxTimeout: err = %v, want 504", err)
	}
	if !errors.Is(err, api.ErrCanceled) {
		t.Fatalf("timed-out run: err = %v, want ErrCanceled", err)
	}
}

func TestServiceHealthAndMetrics(t *testing.T) {
	_, c := newTestService(t, service.Config{})
	ctx := context.Background()
	req := client.SimRequest{Netlist: netfmt.C17Bench(), Request: c17Request(c17WireStimulus(), 30)}
	for i := 0; i < 2; i++ { // second request exercises the result cache
		if _, err := c.Simulate(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Circuits != 1 {
		t.Errorf("health = %+v", h)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"halotisd_requests_total{endpoint=\"simulate\"} 2",
		"halotisd_sim_runs_total 1",
		"halotisd_cache_compiles_total 1",
		"halotisd_cache_entries 1",
		"halotisd_result_cache_hits_total 1",
		"halotisd_result_cache_misses_total 1",
		"halotisd_result_cache_entries 1",
		"halotisd_queue_workers",
		"halotisd_queue_peak_in_flight",
		"halotisd_sim_events_per_second",
	} {
		if !strings.Contains(m, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
}

// TestServiceConcurrentTrafficAndDrain hammers the service from many
// goroutines, then closes it and requires a clean drain: every accepted
// request completed, and the engines created stay bounded by the pools.
func TestServiceConcurrentTrafficAndDrain(t *testing.T) {
	s, c := newTestService(t, service.Config{Workers: 4, QueueDepth: 64, EnginePoolSize: 4})
	ctx := context.Background()
	up, err := c.UploadCircuit(ctx, client.UploadRequest{Netlist: netfmt.C17Bench(), Format: "bench"})
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 8, 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []error
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Distinct stimuli keep the kernel busy (the result cache
				// would otherwise absorb the load).
				st := c17WireStimulus()
				w := st["1"]
				w.Edges[0].T += 0.001 * float64(g*perClient+i)
				st["1"] = w
				_, err := c.Simulate(ctx, client.SimRequest{Circuit: up.ID, Request: c17Request(st, 30)})
				if err != nil {
					if errors.Is(err, api.ErrOverloaded) {
						continue // backpressure is an acceptable answer
					}
					mu.Lock()
					failures = append(failures, err)
					mu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("concurrent traffic failed: %v", failures[0])
	}

	cs := s.CacheStats()
	if cs.Compiles != 1 {
		t.Errorf("concurrent traffic compiled %d times, want 1", cs.Compiles)
	}
	if cs.EnginesCreated > 8 {
		t.Errorf("created %d engines for 4 workers (pool size 4), want <= 8", cs.EnginesCreated)
	}

	// Graceful shutdown: Close drains and returns; afterwards the queue
	// rejects with ErrClosed semantics (503 via HTTP, tested at the queue
	// level in queue_test.go).
	s.Close()
	qs := s.QueueStats()
	if qs.Depth != 0 {
		t.Errorf("queue depth %d after Close, want 0 (drained)", qs.Depth)
	}
}
