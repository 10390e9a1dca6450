package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"time"

	"halotis/client"
	"halotis/cluster"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/faultinject"
	"halotis/internal/netfmt"
	"halotis/internal/service"
)

// The obs experiment is the observability gate: it prices every
// observability surface on one workload and proves each one works.
//
//   - Overhead. Identical unique-stimulus sweeps of the 8x8 array
//     multiplier (per-request kernel work dominates, as in real sweeps)
//     run in four modes: "disabled" (a daemon with no sampler, flight
//     recorder or self-tracing — the floor), "default" (the always-on
//     surface every request pays), "trace" (every request carries a
//     Halotis-Trace header) and "trace+profile" (tracing plus the per-run
//     kernel profile). Each round interleaves the modes request by request,
//     so machine-load drift biases all of them alike. Two rules gate the
//     per-round p50s; see overheadGates.
//   - Instrumentation. A traced, profiled request's span tree comes back
//     from GET /v1/traces and its report carries the kernel profile.
//   - Breach detection. A router fronts the default daemon, and a fault
//     injector slows every simulate it forwards past the router's latency
//     SLO; the router's /v1/status must report firing within one rollup
//     interval.
//   - Exemplars. The breaching requests come back from GET
//     /v1/flightrecorder as pinned exemplars whose router span trees
//     resolve by trace ID.

const (
	tracedRounds = 3   // rounds of each traced mode; the best one counts
	tracedBound  = 5.0 // percent a traced mode's p50 may sit above default's
	pairedRounds = 5   // rounds of default and disabled, paired round by round
	pairedBound  = 2.0 // percent default's p50 may sit above disabled's
)

// tracedDelta is the tracing rule's statistic: the percent by which a
// mode's best round p50 exceeds the baseline's best round p50. The best
// round is the least scheduler-noise view of each mode's cost.
func tracedDelta(base, mode []float64) float64 {
	b := slices.Min(base)
	return (slices.Min(mode) - b) / b * 100
}

// pairedDelta is the always-on rule's statistic: the smallest per-round
// percent by which p50 exceeds the floor's p50 from the same round.
// Comparisons across rounds on a shared machine measure the neighbours'
// load, not the code under test.
func pairedDelta(floor, p50 []float64) float64 {
	d := math.Inf(1)
	for r := range floor {
		d = min(d, (p50[r]-floor[r])/floor[r]*100)
	}
	return d
}

// gate is one overhead rule applied to one mode.
type gate struct {
	mode, rule   string
	delta, bound float64
}

// overheadGates applies the two overhead rules to per-round p50s by mode:
// each traced mode's best round against default's best over the same
// tracedRounds rounds, and default against disabled by the cleanest of
// pairedRounds paired rounds.
func overheadGates(p50 map[string][]float64) []gate {
	def := p50["default"]
	paired := fmt.Sprintf("vs disabled, cleanest of %d paired rounds", pairedRounds)
	traced := fmt.Sprintf("vs default, best of the same %d rounds", tracedRounds)
	return []gate{
		{"default", paired, pairedDelta(p50["disabled"], def), pairedBound},
		{"trace", traced, tracedDelta(def[:tracedRounds], p50["trace"]), tracedBound},
		{"trace+profile", traced, tracedDelta(def[:tracedRounds], p50["trace+profile"]), tracedBound},
	}
}

// obsDaemon is one in-process daemon serving the uploaded workload.
type obsDaemon struct {
	url    string
	id     string
	inputs []string
	last   int // last stimulus variant sent; none repeats, so the result cache absorbs nothing
}

// stimulus returns a stimulus variant this daemon has not seen.
func (d *obsDaemon) stimulus() client.Stimulus {
	d.last++
	return toggleStimulus(d.inputs, d.last)
}

// obsMode is one measured mode and its rounds.
type obsMode struct {
	name    string
	cl      *client.Client
	d       *obsDaemon
	profile bool
	rounds  int
	p50     []float64
	// The lowest-p50 round, for the table.
	bestReqPerSec, bestP50, bestP99 float64
}

// simulate sends one unique-stimulus simulate and returns its latency.
func (m *obsMode) simulate(ctx context.Context) (time.Duration, error) {
	req := client.SimRequest{
		Circuit: m.d.id,
		Request: client.Request{TEnd: 30, Profile: m.profile, Stimulus: m.d.stimulus()},
	}
	t0 := time.Now()
	rep, err := m.cl.Simulate(ctx, req)
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if m.profile && rep.Profile == nil {
		return 0, fmt.Errorf("profiled run returned no Report.Profile")
	}
	return lat, nil
}

// record files one round's latencies.
func (m *obsMode) record(lat []time.Duration) {
	slices.Sort(lat)
	p50 := percentile(lat, 0.50)
	if len(m.p50) == 0 || p50 < m.bestP50 {
		var busy time.Duration
		for _, l := range lat {
			busy += l
		}
		m.bestReqPerSec, m.bestP50, m.bestP99 = float64(len(lat))/busy.Seconds(), p50, percentile(lat, 0.99)
	}
	m.p50 = append(m.p50, p50)
}

// obsExperiment runs the observability gate with runs requests per round
// and mode.
func obsExperiment(lib *cellib.Library, runs int) (string, error) {
	if runs < 1 {
		return "", fmt.Errorf("-obsruns must be >= 1, got %d", runs)
	}
	ctx := context.Background()
	mult, err := circuits.Multiplier(lib, 8, 8)
	if err != nil {
		return "", err
	}
	var multText strings.Builder
	if err := netfmt.WriteCircuit(&multText, mult); err != nil {
		return "", err
	}
	upload := client.UploadRequest{Name: "mult8x8", Format: "net", Netlist: multText.String()}

	// The only two daemons: each has the workload uploaded and its engine
	// pool warm, so no mode pays first-run compilation.
	var daemons [2]*obsDaemon
	for i, cfg := range []service.Config{{SeriesWindows: -1, FlightCapacity: -1}, {}} {
		svc := service.New(cfg)
		ts := httptest.NewServer(svc.Handler())
		defer func() { ts.Close(); svc.Close() }()
		cl := client.New(ts.URL)
		up, err := cl.UploadCircuit(ctx, upload)
		if err != nil {
			return "", fmt.Errorf("upload: %w", err)
		}
		d := &obsDaemon{url: ts.URL, id: up.ID, inputs: up.Inputs}
		if _, err := cl.Simulate(ctx, client.SimRequest{
			Circuit: d.id,
			Request: client.Request{TEnd: 30, Stimulus: d.stimulus()},
		}); err != nil {
			return "", fmt.Errorf("warm-up: %w", err)
		}
		daemons[i] = d
	}
	floor, def := daemons[0], daemons[1]
	traced := client.New(def.url, client.WithTracing())
	modes := []*obsMode{
		{name: "disabled", cl: client.New(floor.url), d: floor, rounds: pairedRounds},
		{name: "default", cl: client.New(def.url), d: def, rounds: pairedRounds},
		{name: "trace", cl: traced, d: def, rounds: tracedRounds},
		{name: "trace+profile", cl: traced, d: def, profile: true, rounds: tracedRounds},
	}
	// Each round interleaves its modes request by request, rotating which
	// goes first, so load drift within the round and any cost of following
	// another mode land on every mode alike.
	for r := 0; r < pairedRounds; r++ {
		lat := make([][]time.Duration, len(modes))
		for i := 0; i < runs; i++ {
			for k := range modes {
				mi := (i + k) % len(modes)
				m := modes[mi]
				if r >= m.rounds {
					continue
				}
				l, err := m.simulate(ctx)
				if err != nil {
					return "", fmt.Errorf("mode %s: %w", m.name, err)
				}
				lat[mi] = append(lat[mi], l)
			}
		}
		for mi, m := range modes {
			if r < m.rounds {
				m.record(lat[mi])
			}
		}
	}

	p50 := map[string][]float64{}
	for _, m := range modes {
		p50[m.name] = m.p50
	}
	gates := overheadGates(p50)
	var b strings.Builder
	fmt.Fprintf(&b, "Observability gate (mult8x8, %d requests/round, %s, GOMAXPROCS=%d)\n",
		runs, runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-15s %6s %10s %10s %10s %10s  %s\n",
		"mode", "rounds", "req/s", "p50(us)", "p99(us)", "d(p50)%", "bound")
	var failed []string
	for _, m := range modes {
		fmt.Fprintf(&b, "%-15s %6d %10.0f %10.0f %10.0f", m.name, m.rounds, m.bestReqPerSec, m.bestP50, m.bestP99)
		for _, g := range gates {
			if g.mode == m.name {
				fmt.Fprintf(&b, " %+9.2f%%  %.0f%% %s", g.delta, g.bound, g.rule)
				if g.delta > g.bound {
					failed = append(failed, g.mode)
				}
			}
		}
		b.WriteString("\n")
	}
	if len(failed) > 0 {
		return "", fmt.Errorf("observability overhead over bound for %s\n%s", strings.Join(failed, ", "), b.String())
	}

	// Instrumentation: one traced, profiled request, its trace fetched
	// back by the ID echoed in the report.
	verify, err := traced.Simulate(ctx, client.SimRequest{
		Circuit: def.id,
		Request: client.Request{TEnd: 30, Profile: true, Stimulus: def.stimulus()},
	})
	if err != nil {
		return "", fmt.Errorf("verification request: %w", err)
	}
	if verify.TraceID == "" {
		return "", fmt.Errorf("traced report carries no trace_id")
	}
	spans, err := traceSpans(ctx, traced, verify.TraceID, "replica.request", "kernel.run", "report.build")
	if err != nil {
		return "", err
	}
	if verify.Profile == nil || len(verify.Profile.Workers) == 0 {
		return "", fmt.Errorf("profiled report carries no kernel profile")
	}
	fmt.Fprintf(&b, "verified trace %s: spans %s; profile workers %d\n",
		verify.TraceID, strings.Join(spans, ","), len(verify.Profile.Workers))

	// Breach detection: a router in front of the default daemon, its calls
	// to the daemon passing a fault injector that delays every simulate
	// past the router's latency SLO.
	const (
		targetP99 = 25 * time.Millisecond
		injected  = 60 * time.Millisecond
		rollup    = 2 * time.Second
		breachers = 8
	)
	inj := faultinject.New(1, faultinject.Rule{
		Kind: faultinject.KindLatency, Match: "/v1/simulate", P: 1, Latency: injected,
	})
	cc, err := cluster.New([]string{def.url}, cluster.WithProbeInterval(0),
		cluster.WithClientOptions(client.WithHTTPClient(&http.Client{Transport: inj.RoundTripper(nil)})),
		cluster.WithSLO(cluster.SLOPolicy{TargetP99: targetP99, RollupInterval: rollup}))
	if err != nil {
		return "", err
	}
	defer cc.Close()
	router := httptest.NewServer(cc.Handler())
	defer router.Close()
	rcl := client.New(router.URL)

	if _, err := rcl.UploadCircuit(ctx, upload); err != nil {
		return "", fmt.Errorf("router upload: %w", err)
	}
	breachStart := time.Now()
	for i := 0; i < breachers; i++ {
		if _, err := rcl.Simulate(ctx, client.SimRequest{
			Circuit: def.id,
			Request: client.Request{TEnd: 30, Stimulus: def.stimulus()},
		}); err != nil {
			return "", fmt.Errorf("breaching simulate: %w", err)
		}
	}
	if inj.Stats().Latency == 0 {
		return "", fmt.Errorf("fault injector never fired; the breach premise is broken")
	}
	var status *client.StatusResponse
	deadline := time.Now().Add(rollup + time.Second)
	for {
		status, err = rcl.Status(ctx)
		if err != nil {
			return "", fmt.Errorf("router status: %w", err)
		}
		if status.Status == "firing" || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	detect := time.Since(breachStart)
	if status.Status != "firing" || detect > rollup {
		return "", fmt.Errorf("breach not detected within one rollup interval: status %q after %v (interval %v)\n%s",
			status.Status, detect.Round(time.Millisecond), rollup, b.String())
	}
	fastBurn := 0.0
	for _, w := range status.Windows {
		if w.Name == "fast" {
			fastBurn = w.BurnRate
		}
	}
	fmt.Fprintf(&b, "breach: %d simulates slowed %v past the %v SLO; status %q after %v (fast burn %.1fx, rollup interval %v)\n",
		breachers, injected, targetP99, status.Status, detect.Round(time.Millisecond), fastBurn, rollup)

	// Exemplars: a breaching simulate pinned in the router's flight
	// recorder, its span tree resolvable by trace ID.
	fr, err := rcl.FlightRecords(ctx, 0)
	if err != nil {
		return "", fmt.Errorf("flight records: %w", err)
	}
	var sample string
	for _, r := range fr.Records {
		if r.Route == "simulate" && r.Slow && r.Pinned && r.TraceID != "" {
			sample = r.TraceID
			break
		}
	}
	if sample == "" {
		return "", fmt.Errorf("no pinned slow simulate exemplar in the flight recorder (%d records)", len(fr.Records))
	}
	spans, err = traceSpans(ctx, rcl, sample, "router.request", "router.resolve", "router.attempt")
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "exemplars: %d/%d records promoted, %d pinned; trace %s spans %s\n",
		fr.Promoted, fr.Recorded, len(fr.PinnedTraceIDs), sample, strings.Join(spans, ","))
	return b.String(), nil
}

// traceSpans fetches a trace and returns its sorted distinct span names,
// or an error naming the first wanted span it lacks.
func traceSpans(ctx context.Context, cl *client.Client, id string, want ...string) ([]string, error) {
	tr, err := cl.Trace(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("fetch trace %s: %w", id, err)
	}
	var names []string
	for _, s := range tr.Spans {
		if !slices.Contains(names, s.Name) {
			names = append(names, s.Name)
		}
	}
	slices.Sort(names)
	for _, w := range want {
		if !slices.Contains(names, w) {
			return nil, fmt.Errorf("trace %s is missing span %q (has %v)", id, w, names)
		}
	}
	return names, nil
}
