package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"halotis"
	"halotis/api"
	"halotis/client"
	"halotis/cluster"
	"halotis/internal/circ"
	"halotis/internal/circuits"
	"halotis/internal/netfmt"
	"halotis/internal/netlist"
	"halotis/internal/service"
	"halotis/internal/sim"
)

// serve-fleet shape. Every circuit is small, so each request stays far
// below the router's 10 ms hedge floor and no timing-dependent duplicate
// work runs.
const (
	fleetReplicas  = 2
	fleetClients   = 2  // closed-loop callers, one connection each (= nproc of the reference host)
	fleetSetups    = 15 // set-up repetitions; setup_s is their median
	fleetVectors   = 3  // random vectors per simulate request
	hotSetSize     = 24 // exact-repeat requests warmed on every replica
	uploadGates    = 150
	uploadInputs   = 8
	canonicalOps   = 256 // op indices whose simulated counts are invariant records
	fleetChecks    = 64  // reports re-run on a Local session
	fleetCheckStep = 97  // every fleetCheckStep-th op is a check sample
	fleetLayerTol  = 0.20
)

// Op classes and their shares of the seeded mix (percent).
const (
	classUnique = iota // fresh stimulus, outputs only: runs the kernel
	classWave          // fresh stimulus plus waveforms and VCD
	classRepeat        // exact repeat of a hot-set request: result-cache hit
	classUpload        // fresh small circuit: router parse and placement, replica compile
)

var classShare = [...]int{classUnique: 55, classWave: 15, classRepeat: 27, classUpload: 3}

var classNames = [...]string{"unique", "wave", "repeat", "upload"}

// fleetCircuit is one of the base circuits every simulate request targets.
type fleetCircuit struct {
	name    string
	text    string
	format  string
	inputs  []string
	outputs []string
	id      string // content-hash ID, learned at upload
}

func fleetCircuits() ([]*fleetCircuit, error) {
	lib := library()
	mult, err := circuits.Multiplier(lib, 8, 8)
	if err != nil {
		return nil, err
	}
	multText, err := circuitText(mult)
	if err != nil {
		return nil, err
	}
	dagText, err := familyText("random-dag", 1000)
	if err != nil {
		return nil, err
	}
	base := []*fleetCircuit{
		{name: "c17", text: netfmt.C17Bench(), format: "bench"},
		{name: "mult8x8", text: multText, format: "net"},
		{name: "random-dag-1k", text: dagText, format: "net"},
	}
	for _, c := range base {
		ckt, err := parseText(c.text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		c.inputs = inputNames(ckt)
		for _, o := range ckt.Outputs {
			c.outputs = append(c.outputs, o.Name)
		}
	}
	return base, nil
}

// fleetOp is one op of the seeded sequence.
type fleetOp struct {
	Class   int
	Circuit int
	Hot     int
	Req     api.Request
	Last    map[string]bool `json:"-"`
	Upload  string          `json:",omitempty"`
}

func fleetRequest(rng *rand.Rand, c *fleetCircuit, wave bool) vectorOp {
	op := randomOp(rng, c.inputs, fleetVectors)
	if wave {
		op.Req.Waveforms = c.outputs[:min(4, len(c.outputs))]
		op.Req.VCD = true
	}
	return op
}

// hotSet draws the exact-repeat requests.
func hotSet(seed int64, base []*fleetCircuit) []fleetOp {
	rng := rngFor(seed, streamHotSet)
	hot := make([]fleetOp, hotSetSize)
	for i := range hot {
		c := i % len(base)
		vo := fleetRequest(rng, base[c], false)
		hot[i] = fleetOp{Class: classRepeat, Circuit: c, Hot: i, Req: vo.Req, Last: vo.Last}
	}
	return hot
}

// opAt is op idx of the seed's sequence: a pure function of (seed, idx).
func opAt(seed int64, idx int, base []*fleetCircuit, hot []fleetOp) (fleetOp, error) {
	rng := rngFor(seed, streamFleetOps+uint64(idx))
	draw, class := rng.IntN(100), 0
	for acc := classShare[0]; draw >= acc; acc += classShare[class] {
		class++
	}
	switch class {
	case classRepeat:
		return hot[rng.IntN(len(hot))], nil
	case classUpload:
		ckt, err := circuits.RandomCombinational(library(), circuits.RandomOptions{
			Inputs: uploadInputs, Gates: uploadGates, Seed: int64(rng.Uint64() >> 1)})
		if err != nil {
			return fleetOp{}, err
		}
		text, err := circuitText(ckt)
		return fleetOp{Class: classUpload, Upload: text}, err
	}
	c := rng.IntN(len(base))
	vo := fleetRequest(rng, base[c], class == classWave)
	// Fresh requests stretch the horizon by idx*1e-7 ns, so no two ops share
	// a result-cache key and none shares one with the hot set, whatever the
	// draw; the outputs have long settled either way.
	vo.Req.TEnd += float64(idx) * 1e-7
	return fleetOp{Class: class, Circuit: c, Req: vo.Req, Last: vo.Last}, nil
}

// node is one in-process HTTP server of the fleet.
type node struct {
	ts   *httptest.Server
	srv  *service.Server
	cl   *cluster.Cluster
	http *http.Client
	c    *client.Client
}

// newClient returns a typed client with its own transport, so each closed
// loop holds one connection and closing it leaves nothing behind.
func newClient(url string) (*client.Client, *http.Client) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	h := &http.Client{Transport: tr, Timeout: time.Minute}
	return client.New(url, client.WithHTTPClient(h)), h
}

func replicaNode(cfg service.Config) *node {
	srv := service.New(cfg)
	n := &node{srv: srv, ts: httptest.NewServer(srv.Handler())}
	n.c, n.http = newClient(n.ts.URL)
	return n
}

func (n *node) close() {
	n.http.CloseIdleConnections()
	n.ts.Close()
	if n.srv != nil {
		n.srv.Close()
	}
	if n.cl != nil {
		n.cl.Close()
	}
}

// fleet is the replicas, the router and the callers' clients.
type fleet struct {
	replicas []*node
	router   *node
	callers  []*client.Client
	httpc    []*http.Client
}

func (f *fleet) close() {
	for _, h := range f.httpc {
		h.CloseIdleConnections()
	}
	f.router.close()
	for _, r := range f.replicas {
		r.close()
	}
}

// startFleet is the timed set-up: start the replicas and the router, upload
// the base circuits through the router, and warm the hot set on every
// replica, so its hits do not depend on how the router's rotation
// interleaves the callers.
func startFleet(ctx context.Context, base []*fleetCircuit, hot []fleetOp) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for r := 0; r < fleetReplicas; r++ {
		n := replicaNode(service.Config{ReplicaID: fmt.Sprintf("r%d", r)})
		f.replicas = append(f.replicas, n)
		urls = append(urls, n.ts.URL)
	}
	// Host steal stretches a few requests past the router's default 10 ms
	// hedge floor; a 250 ms floor keeps duplicate work out of the workload
	// while the router still tracks latencies for hedging.
	cl, err := cluster.New(urls, cluster.WithHedgePolicy(cluster.HedgePolicy{MinDelay: 250 * time.Millisecond}))
	if err != nil {
		return nil, err
	}
	f.router = &node{cl: cl, ts: httptest.NewServer(cl.Handler())}
	f.router.c, f.router.http = newClient(f.router.ts.URL)
	for i := 0; i < fleetClients; i++ {
		c, h := newClient(f.router.ts.URL)
		f.callers = append(f.callers, c)
		f.httpc = append(f.httpc, h)
	}
	if err := upload(ctx, f.callers[0], base); err != nil {
		f.close()
		return nil, err
	}
	for _, r := range f.replicas {
		if err := warm(ctx, r.c, base, hot); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func upload(ctx context.Context, c *client.Client, base []*fleetCircuit) error {
	for _, b := range base {
		resp, err := c.UploadCircuit(ctx, api.UploadRequest{Format: b.format, Netlist: b.text})
		if err != nil {
			return fmt.Errorf("upload %s: %w", b.name, err)
		}
		if b.id != "" && b.id != resp.ID {
			return fmt.Errorf("upload %s: id %s, earlier %s", b.name, resp.ID, b.id)
		}
		b.id = resp.ID
	}
	return nil
}

func warm(ctx context.Context, c *client.Client, base []*fleetCircuit, hot []fleetOp) error {
	for _, h := range hot {
		if _, err := c.Simulate(ctx, api.SimRequest{Circuit: base[h.Circuit].id, Request: h.Req}); err != nil {
			return fmt.Errorf("warm hot request %d: %w", h.Hot, err)
		}
	}
	return nil
}

// scrape reads the named counters (summed over label sets) from a node's
// /metrics page.
func scrape(ctx context.Context, c *client.Client, names ...string) (map[string]float64, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, "{")
		if want[name] {
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return nil, fmt.Errorf("metric %s: %w", name, err)
			}
			out[name] += v
		}
	}
	return out, sc.Err()
}

var replicaCounters = []string{
	"halotisd_queue_wait_seconds_sum", "halotisd_queue_wait_seconds_count", "halotisd_queue_rejected_total",
	"halotisd_result_cache_hits_total", "halotisd_result_cache_misses_total", "halotisd_cache_compiles_total",
}

var routerCounters = []string{"halotisd_router_hedges_total", "halotisd_router_failovers_total"}

// counters sums the replica and router counters over the whole fleet.
func (f *fleet) counters(ctx context.Context) (map[string]float64, error) {
	total := map[string]float64{}
	for _, r := range f.replicas {
		m, err := scrape(ctx, r.c, replicaCounters...)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	m, err := scrape(ctx, f.router.c, routerCounters...)
	maps.Copy(total, m)
	return total, err
}

type fleetResult struct {
	op  fleetOp
	rep *api.Report
}

func runServeFleet(ctx context.Context, cfg config) (*outcome, error) {
	base, err := fleetCircuits()
	if err != nil {
		return nil, err
	}
	hot := hotSet(cfg.seed, base)
	// The op sequence is unbounded; its first canonicalOps ops fingerprint it.
	prefix := make([]fleetOp, canonicalOps)
	for i := range prefix {
		if prefix[i], err = opAt(cfg.seed, i, base, hot); err != nil {
			return nil, err
		}
	}
	out := &outcome{opDigest: digest(struct{ Hot, Ops []fleetOp }{hot, prefix})}

	// Each set-up starts from a collected heap whose free pages went back to
	// the OS, with the previous fleet's servers closed.
	var setups []float64
	var f *fleet
	for i := 0; i < fleetSetups; i++ {
		if f != nil {
			f.close()
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		if f, err = startFleet(ctx, base, hot); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	fmt.Printf("fleet: %d replicas behind a router, %d closed-loop clients; circuits c17, mult8x8, random-dag-1k; hot set %d\n",
		fleetReplicas, fleetClients, hotSetSize)

	before, err := f.counters(ctx)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	var mu sync.Mutex
	var byClass [len(classShare)][]call
	canonical := make([]*api.Report, canonicalOps)
	var samples []fleetResult
	m := startMeter()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < fleetClients; w++ {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			var lat [len(classShare)][]call
			for time.Since(start) < cfg.seconds {
				idx := int(next.Add(1)) - 1
				op, err := opAt(cfg.seed, idx, base, hot)
				if err != nil {
					mu.Lock()
					out.attempted++
					out.fail("op %d: generate: %v", idx, err)
					mu.Unlock()
					continue
				}
				t0 := time.Now()
				var rep *api.Report
				if op.Class == classUpload {
					_, err = c.UploadCircuit(ctx, api.UploadRequest{Netlist: op.Upload})
				} else {
					rep, err = c.Simulate(ctx, api.SimRequest{Circuit: base[op.Circuit].id, Request: op.Req})
				}
				lat[op.Class] = append(lat[op.Class], call{end: time.Since(start), ms: ms(time.Since(t0))})
				m.observe()
				mu.Lock()
				out.attempted++
				switch {
				case err != nil:
					out.fail("op %d (%s): %v", idx, classNames[op.Class], err)
				case rep == nil:
				case rep.Cached != (op.Class == classRepeat):
					out.fail("op %d (%s): result cache hit=%v", idx, classNames[op.Class], rep.Cached)
				default:
					if idx < canonicalOps {
						canonical[idx] = rep
					}
					if idx%fleetCheckStep == 0 && len(samples) < fleetChecks {
						samples = append(samples, fleetResult{op, rep})
					}
				}
				mu.Unlock()
			}
			mu.Lock()
			for k := range lat {
				byClass[k] = append(byClass[k], lat[k]...)
			}
			mu.Unlock()
		}(f.callers[w])
	}
	wg.Wait()
	wall := time.Since(start)
	heapMB, rt := m.finish(out.attempted)
	after, err := f.counters(ctx)
	if err != nil {
		return nil, err
	}

	sims := slices.Concat(byClass[classUnique], byClass[classWave], byClass[classRepeat])
	tput, _ := figure(slices.Concat(sims, byClass[classUpload]), wall, true, func(lat []float64, d time.Duration) (float64, error) {
		return float64(len(lat)) / d.Seconds(), nil
	})
	p50, _ := figure(sims, wall, false, percentile(0.5))
	up50, _ := figure(byClass[classUpload], wall, false, percentile(0.5))
	p90, err := figure(sims, wall, false, percentile(0.9))
	if err != nil {
		return nil, err
	}
	p99, err := figure(sims, wall, false, percentile(0.99))
	if err != nil {
		return nil, err
	}
	out.e2e = []metric{
		{"setup_s", "s", median(setups)},
		{"ops_per_s", "1/s", tput},
		{"latency_p50_ms", "ms", p50},
		{"latency_p90_ms", "ms", p90},
		{"latency_p99_ms", "ms", p99},
		{"upload_p50_ms", "ms", up50},
		{"heap_peak_mb", "MB", heapMB},
	}
	out.notes = append(out.notes,
		fmt.Sprintf("%d simulate + %d upload calls in %.2fs", len(sims), len(byClass[classUpload]), wall.Seconds()),
		fmt.Sprintf("set-ups (s): %.4g", setups))
	for k, c := range byClass {
		l := latencies(c)
		q99, _ := quantile(l, 0.99)
		out.notes = append(out.notes, fmt.Sprintf("%-6s calls %6d  p50 %.3f ms  p99 %.3f ms (0: too few calls)", classNames[k], len(l), median(l), q99))
	}

	// Invariant counts: the hot set (as warmed) plus the canonical prefix.
	locals, err := localSessions(ctx, base)
	if err != nil {
		return nil, err
	}
	for _, h := range hot {
		rep, err := locals[h.Circuit].Run(ctx, h.Req)
		if err != nil {
			return nil, fmt.Errorf("local hot request %d: %w", h.Hot, err)
		}
		out.counts.add(rep.Stats)
	}
	for i, rep := range canonical {
		if rep != nil {
			out.counts.add(rep.Stats)
		} else if prefix[i].Class != classUpload {
			out.fail("canonical op %d never completed", i)
		}
	}
	// Report checks: a sample against a Local session of the same request,
	// and every sampled output against the zero-delay evaluation.
	ckts := make([]*netlist.Circuit, len(base))
	for i, b := range base {
		if ckts[i], err = parseText(b.text); err != nil {
			return nil, err
		}
	}
	for _, s := range samples {
		out.attempted++
		want, err := locals[s.op.Circuit].Run(ctx, s.op.Req)
		if err != nil {
			out.fail("local rerun: %v", err)
			continue
		}
		if !sameReport(s.rep, want) {
			out.fail("%s report on %s differs from a Local session's", classNames[s.op.Class], base[s.op.Circuit].name)
		}
		zero, err := ckts[s.op.Circuit].EvalBool(s.op.Last)
		if err != nil {
			return nil, err
		}
		if bad := mismatches(s.rep.Outputs, zero); bad > 0 {
			out.fail("%s report on %s: %d outputs differ from the zero-delay value", classNames[s.op.Class], base[s.op.Circuit].name, bad)
		}
	}

	d := func(name string) float64 { return after[name] - before[name] }
	hits, misses := d("halotisd_result_cache_hits_total"), d("halotisd_result_cache_misses_total")
	out.layers = append(out.layers, rt...)
	out.layers = append(out.layers, out.counts.countMetrics()...)
	out.layers = append(out.layers,
		metric{"sim.partitions", "count", 1},
		metric{"service.queue_wait_us", "us", 1e6 * d("halotisd_queue_wait_seconds_sum") / max(d("halotisd_queue_wait_seconds_count"), 1)},
		metric{"service.rejected", "count", d("halotisd_queue_rejected_total")},
		metric{"service.result_cache_hit_ratio", "ratio", hits / max(hits+misses, 1)},
		metric{"service.compiles", "count", d("halotisd_cache_compiles_total")},
		metric{"cluster.hedges", "count", d("halotisd_router_hedges_total")},
		metric{"cluster.failovers", "count", d("halotisd_router_failovers_total")},
	)
	if h, fo := d("halotisd_router_hedges_total"), d("halotisd_router_failovers_total"); h != 0 || fo != 0 {
		out.notes = append(out.notes, fmt.Sprintf("router hedged %g and failed over %g requests; both should be 0", h, fo))
	}
	if cfg.trace {
		if err := tracedFleet(ctx, cfg, f, base, hot, p50, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func latencies(calls []call) []float64 {
	out := make([]float64, len(calls))
	for i, c := range calls {
		out[i] = c.ms
	}
	return out
}

func localSessions(ctx context.Context, base []*fleetCircuit) ([]halotis.Session, error) {
	be := halotis.NewLocal()
	var out []halotis.Session
	for _, b := range base {
		ckt, err := parseText(b.text)
		if err != nil {
			return nil, err
		}
		s, err := be.Open(ctx, ckt)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// sameReport compares every deterministic field of two reports.
func sameReport(a, b *api.Report) bool {
	return a.Stats == b.Stats && maps.Equal(a.Outputs, b.Outputs) &&
		reflect.DeepEqual(a.Waveforms, b.Waveforms) && a.VCD == b.VCD && a.Model == b.Model && a.TEnd == b.TEnd
}

// Traced serve-fleet paths. Every op of the traced pass takes one path, by
// op index, and draws a fresh request from its own index range, so no path
// turns another path's miss into a hit. Repeats stay hits on every path.
const (
	pathRouter  = iota // typed client through the router
	pathDirect         // typed client straight to a replica
	pathRaw            // encode, raw HTTP round trip to a replica, decode
	pathHandler        // in-process ServeHTTP, fleet health on and off
	pathLayers         // decode, Prepare, RunContext, BuildReport, encode on the benchmark's own IR
	pathCount
)

// fleetTrace is what the traced pass's paths run against.
type fleetTrace struct {
	tr         *tracer
	f          *fleet
	base       []*fleetCircuit
	handlers   []http.Handler // in-process servers: fleet health on, off
	irs        []*circ.Compiled
	pools      []*sim.EnginePool
	hotReports []*api.Report
	runNs      atomic.Uint64
	events     atomic.Uint64
}

// tracedFleet runs the traced pass with the same two closed loops as the
// timed phase.
func tracedFleet(ctx context.Context, cfg config, f *fleet, base []*fleetCircuit, hot []fleetOp, untracedP50 float64, out *outcome) error {
	withObs := service.New(service.Config{ReplicaID: "obs-on"})
	noObs := service.New(service.Config{ReplicaID: "obs-off", SeriesWindows: -1, FlightCapacity: -1})
	defer withObs.Close()
	defer noObs.Close()
	ft := &fleetTrace{tr: newTracer(), f: f, base: base, handlers: []http.Handler{withObs.Handler(), noObs.Handler()}}
	tr := ft.tr
	out.tr = tr
	if err := inProcessSetUp(base, hot, ft.handlers); err != nil {
		return err
	}
	for _, b := range base {
		ckt, err := parseText(b.text)
		if err != nil {
			return err
		}
		ir := circ.Compile(ckt)
		ft.irs = append(ft.irs, ir)
		ft.pools = append(ft.pools, sim.NewEnginePool(ir, runtime.GOMAXPROCS(0), nil))
	}
	for _, h := range hot {
		rep, _, err := layerCalls(ctx, newTracer(), -1, ft.irs[h.Circuit], ft.pools[h.Circuit], h.Req)
		if err != nil {
			return err
		}
		ft.hotReports = append(ft.hotReports, rep)
	}

	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < fleetClients; w++ {
		wg.Add(1)
		go func(caller *client.Client, httpc *http.Client) {
			defer wg.Done()
			for time.Since(start) < cfg.seconds {
				i := int(next.Add(1)) - 1
				op, err := opAt(cfg.seed, 1<<22+i, base, hot)
				if err == nil {
					err = ft.op(ctx, i, op, caller, httpc)
				}
				mu.Lock()
				out.attempted++
				if err != nil {
					out.fail("traced op %d (path %d, %s): %v", i, i%pathCount, classNames[op.Class], err)
				}
				mu.Unlock()
			}
		}(f.callers[w], f.httpc[w])
	}
	wg.Wait()
	wall := time.Since(start)

	ms := func(name string) float64 { return tr.round(name, start, wall, median) }
	p := func(name string) float64 { return ms(name) * 1e3 } // µs
	avg := func(name string) float64 { return tr.round(name, start, wall, mean) }
	handler := p("service.handler")
	transport := p("http.roundtrip") - handler
	hop := p("fleet.router") - p("fleet.direct")
	// The layer sum adds independently timed parts, as means: the mix's
	// medians do not add (sim.run's median is a c17 run, its mean mostly
	// 1k-gate runs). The handler's own time (service.self_us: routing,
	// queueing, caches, obs) is left out, so the gap to the traced router
	// path is the share of a request no layer span accounts for.
	gap, err := layerGap(map[string]float64{
		"client.request_encode":  avg("client.request_encode"),
		"client.transport":       avg("http.roundtrip") - avg("service.handler"),
		"service.request_decode": avg("service.request_decode"),
		"api.prepare":            avg("api.prepare"),
		"sim.run":                avg("sim.run"),
		"api.report_build":       avg("api.report_build"),
		"service.report_encode":  avg("service.report_encode"),
		"client.report_decode":   avg("client.report_decode"),
		"cluster.hop":            avg("fleet.router") - avg("fleet.direct"),
	}, avg("fleet.router"), fleetLayerTol)
	if err != nil {
		out.fail("%v", err)
	}
	out.layers = append(out.layers,
		metric{"netfmt.parse_ms", "ms", ms("netfmt.parse")},
		metric{"circ.compile_ms", "ms", ms("circ.compile")},
		metric{"api.prepare_ms", "ms", ms("api.prepare")},
		metric{"sim.run_ms", "ms", ms("sim.run")},
		metric{"api.report_build_ms", "ms", ms("api.report_build")},
		metric{"sim.ns_per_event", "ns", float64(ft.runNs.Load()) / float64(max(ft.events.Load(), 1))},
		metric{"client.request_encode_us", "us", p("client.request_encode")},
		metric{"client.report_decode_us", "us", p("client.report_decode")},
		metric{"client.transport_us", "us", transport},
		metric{"service.request_decode_us", "us", p("service.request_decode")},
		metric{"service.report_encode_us", "us", p("service.report_encode")},
		metric{"service.handler_us", "us", handler},
		metric{"service.self_us", "us", (avg("service.handler") - avg("layers")) * 1e3},
		metric{"obs.overhead_us", "us", handler - p("service.handler_noobs")},
		metric{"cluster.hop_us", "us", hop},
		metric{"trace.overhead_ratio", "ratio", ms("fleet.router")/untracedP50 - 1},
		metric{"trace.layer_gap_ratio", "ratio", gap},
	)
	return nil
}

// inProcessSetUp uploads the base circuits to the in-process servers and
// warms the hot set on them.
func inProcessSetUp(base []*fleetCircuit, hot []fleetOp, handlers []http.Handler) error {
	for _, h := range handlers {
		for _, b := range base {
			body, _ := json.Marshal(api.UploadRequest{Format: b.format, Netlist: b.text})
			if code, _ := serve(h, "/v1/circuits", body); code != http.StatusOK {
				return fmt.Errorf("in-process upload %s: status %d", b.name, code)
			}
		}
		for _, op := range hot {
			body, _ := json.Marshal(api.SimRequest{Circuit: base[op.Circuit].id, Request: op.Req})
			if code, _ := serve(h, "/v1/simulate", body); code != http.StatusOK {
				return fmt.Errorf("in-process warm: status %d", code)
			}
		}
	}
	return nil
}

// serve calls a handler in-process: no socket, no client.
func serve(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// layerCalls runs a request through the service's steps on the benchmark's
// own compiled circuit, a span around each: the same Prepare, pooled
// RunContext and BuildReport the replica's handler performs.
func layerCalls(ctx context.Context, tr *tracer, op int, ir *circ.Compiled, pool *sim.EnginePool, req api.Request) (*api.Report, time.Duration, error) {
	var st sim.Stimulus
	var err error
	tr.record("api.prepare", op, func() { st, err = req.Prepare(ir) })
	if err != nil {
		return nil, 0, err
	}
	key := req.Options().PoolKey()
	eng := pool.Acquire(key)
	defer pool.Release(key, eng)
	eng.SetProfiling(req.Profile)
	var res *sim.Result
	run := tr.record("sim.run", op, func() { res, err = eng.RunContext(ctx, st, req.TEnd) })
	if err != nil {
		return nil, 0, err
	}
	var rep *api.Report
	tr.record("api.report_build", op, func() { rep = api.BuildReport(ir, ir.Hash, res, &req) })
	return rep, run, nil
}

// op runs traced op i on path i%pathCount with caller's connection.
func (ft *fleetTrace) op(ctx context.Context, i int, op fleetOp, caller *client.Client, httpc *http.Client) error {
	tr := ft.tr
	if op.Class == classUpload {
		// The write path's layers, then the write itself through the router.
		var ckt *netlist.Circuit
		var err error
		tr.record("netfmt.parse", i, func() { ckt, err = netfmt.ParseCircuit(strings.NewReader(op.Upload), library()) })
		if err != nil {
			return err
		}
		tr.record("circ.compile", i, func() { circ.Compile(ckt) })
		tr.record("fleet.upload", i, func() { _, err = caller.UploadCircuit(ctx, api.UploadRequest{Netlist: op.Upload}) })
		return err
	}
	sreq := api.SimRequest{Circuit: ft.base[op.Circuit].id, Request: op.Req}
	replica := ft.f.replicas[i%len(ft.f.replicas)]
	var err error
	switch i % pathCount {
	case pathRouter:
		tr.record("fleet.router", i, func() { _, err = caller.Simulate(ctx, sreq) })
	case pathDirect:
		tr.record("fleet.direct", i, func() { _, err = replica.c.Simulate(ctx, sreq) })
	case pathRaw:
		var body, resp []byte
		tr.record("client.request_encode", i, func() { body, err = json.Marshal(sreq) })
		if err != nil {
			return err
		}
		tr.record("http.roundtrip", i, func() { resp, err = post(ctx, httpc, replica.ts.URL+"/v1/simulate", body) })
		if err != nil {
			return err
		}
		var rep api.Report
		tr.record("client.report_decode", i, func() { err = json.Unmarshal(resp, &rep) })
	case pathHandler:
		body, _ := json.Marshal(sreq)
		names := [2]string{"service.handler", "service.handler_noobs"}
		for k := 0; k < 2; k++ {
			h := (i/pathCount + k) % 2 // alternate which configuration goes first
			var code int
			tr.record(names[h], i, func() { code, _ = serve(ft.handlers[h], "/v1/simulate", body) })
			if code != http.StatusOK {
				return fmt.Errorf("in-process simulate: status %d", code)
			}
			op.Req.TEnd += 1e-9 // the second configuration gets its own miss
			if op.Class != classRepeat {
				sreq.Request = op.Req
				body, _ = json.Marshal(sreq)
			}
		}
	case pathLayers:
		body, _ := json.Marshal(sreq)
		t0 := time.Now()
		var dec *api.SimRequest
		tr.record("service.request_decode", i, func() { dec, err = service.DecodeSimRequest(bytes.NewReader(body)) })
		if err != nil {
			return err
		}
		c := op.Circuit
		var rep *api.Report
		if op.Class == classRepeat {
			// A hit: the replica prepares (the cache key needs the
			// stimulus) and answers from its result cache. Zero-length
			// spans keep every layer's figures over the same ops.
			tr.record("api.prepare", i, func() { _, err = dec.Request.Prepare(ft.irs[c]) })
			tr.add("sim.run", i, time.Now(), 0)
			tr.add("api.report_build", i, time.Now(), 0)
			rep = ft.hotReports[op.Hot]
		} else {
			var run time.Duration
			rep, run, err = layerCalls(ctx, tr, i, ft.irs[c], ft.pools[c], dec.Request)
			ft.runNs.Add(uint64(run.Nanoseconds()))
			if rep != nil {
				ft.events.Add(rep.Stats.EventsProcessed)
			}
		}
		if err != nil {
			return err
		}
		tr.record("service.report_encode", i, func() { _, err = json.Marshal(rep) })
		tr.add("layers", i, t0, time.Since(t0))
	}
	return err
}

func post(ctx context.Context, h *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return b, err
}
