package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"halotis"
	"halotis/api"
	"halotis/cluster"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/service"
)

// The chaos experiment is a fault-injection soak of the full cluster
// stack: three in-process replicas behind a cluster router, concurrent
// clients hammering them over real HTTP while a scripted schedule kills a
// primary, revives it, and slows another. The claim under test is
// end-to-end resilience, checked two ways:
//
//   - Correctness under faults: every report that comes back — through
//     failover, hedged reads, or the router's stale-serve cache — must be
//     bit-identical in its deterministic fields to the local backend's
//     report for the same request. The soak fails on any divergence.
//   - Mechanisms actually fire: after the soak the router's /metrics must
//     show hedges, breaker open/close transitions, failovers, a degraded
//     (stale-cache) serve, and a deadline shed — so a regression that
//     silently disables one of them fails the bench, not just a unit test.
//
// Success latency is also recorded; p99 must stay bounded (well under the
// client deadline) even across the kill and slow phases.

// chaosGate sits in front of one replica and applies the scripted faults:
// down severs every connection (the panic aborts the HTTP/1 connection,
// which the router observes as a transport failure), delayMs adds latency
// to simulate paths with the request context still honored.
type chaosGate struct {
	h       http.Handler
	down    atomic.Bool
	delayMs atomic.Int64
}

func (g *chaosGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.down.Load() {
		panic(http.ErrAbortHandler)
	}
	if d := g.delayMs.Load(); d > 0 && strings.HasPrefix(r.URL.Path, "/v1/simulate") {
		select {
		case <-time.After(time.Duration(d) * time.Millisecond):
		case <-r.Context().Done():
			return
		}
	}
	g.h.ServeHTTP(w, r)
}

// reportSignature reduces a report to its deterministic fields for the
// divergence check: kernel event count plus every sampled output. Degraded
// and Cached flags, elapsed time and replica identity legitimately vary.
func reportSignature(rep *halotis.Report) string {
	keys := make([]string, 0, len(rep.Outputs))
	for k := range rep.Outputs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d", rep.Stats.EventsProcessed)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%t", k, rep.Outputs[k])
	}
	return b.String()
}

var routerCounterRe = regexp.MustCompile(`(?m)^halotisd_router_([a-z_]+_total)(?:\{[^}]*\})? (\d+)$`)

// scrapeRouterCounters reads the router's /metrics and returns every
// un-labeled halotisd_router_*_total counter by name.
func scrapeRouterCounters(url string) (map[string]uint64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, m := range routerCounterRe.FindAllStringSubmatch(buf.String(), -1) {
		if strings.Contains(m[0], "{") {
			continue // per-endpoint / per-replica series
		}
		v, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			return nil, err
		}
		out[m[1]] = v
	}
	return out, nil
}

// clusterWorkloads builds n same-size random combinational circuits under
// distinct seeds, so their content hashes — and therefore their placements —
// differ while per-request kernel cost stays uniform.
func clusterWorkloads(lib *cellib.Library, n int) ([]*halotis.Circuit, error) {
	out := make([]*halotis.Circuit, n)
	for i := range out {
		ckt, err := circuits.RandomCombinational(lib, circuits.RandomOptions{
			Inputs: 8, Gates: 60, Seed: int64(i + 1),
		})
		if err != nil {
			return nil, err
		}
		out[i] = ckt
	}
	return out, nil
}

// chaosExperiment runs the resilience soak and its assertions.
func chaosExperiment(lib *cellib.Library, dur time.Duration, clients int) (string, error) {
	if dur < time.Second {
		return "", fmt.Errorf("-chaosdur must be at least 1s")
	}
	if clients < 2 {
		return "", fmt.Errorf("-chaosclients must be >= 2")
	}

	const (
		nReplicas   = 3
		replication = 2
		variants    = 12 // distinct stimuli per circuit
		slowMs      = 120
		clientTO    = 2 * time.Second
	)

	// Three replicas, each behind a fault gate.
	type node struct {
		svc  *service.Server
		gate *chaosGate
		ts   *httptest.Server
	}
	nodes := make([]*node, nReplicas)
	addrs := make([]string, nReplicas)
	ids := make([]string, nReplicas)
	gateByID := map[string]*chaosGate{}
	for i := range nodes {
		id := fmt.Sprintf("n%d", i+1)
		svc := service.New(service.Config{ReplicaID: id})
		gate := &chaosGate{h: svc.Handler()}
		ts := httptest.NewServer(gate)
		nodes[i] = &node{svc: svc, gate: gate, ts: ts}
		addrs[i], ids[i] = ts.URL, id
		gateByID[id] = gate
	}
	defer func() {
		for _, n := range nodes {
			n.ts.Close()
			n.svc.Close()
		}
	}()

	// Aggressive resilience knobs so every mechanism fires within a short
	// soak: instant breaker trip, short cooldown with fast probes driving
	// recovery, hedging armed after a handful of latency samples.
	cl, err := cluster.New(addrs,
		cluster.WithReplicaIDs(ids...),
		cluster.WithReplication(replication),
		cluster.WithProbeInterval(60*time.Millisecond),
		cluster.WithBreakerPolicy(cluster.BreakerPolicy{FailureThreshold: 1, Cooldown: 150 * time.Millisecond}),
		cluster.WithHedgePolicy(cluster.HedgePolicy{Quantile: 0.9, MinDelay: 2 * time.Millisecond, MaxRatio: 1, Warmup: 4}),
	)
	if err != nil {
		return "", err
	}
	defer cl.Close()
	router := httptest.NewServer(cl.Handler())
	defer router.Close()

	// Workloads: two random circuits with distinct content hashes (and so
	// distinct placements), and a local-backend baseline report for every
	// (circuit, variant) request — the ground truth for divergence.
	ckts, err := clusterWorkloads(lib, 2)
	if err != nil {
		return "", err
	}
	ctx := context.Background()
	local := halotis.NewLocal()
	remote := halotis.NewRemote(router.URL)
	sessions := make([]halotis.Session, len(ckts))
	baseline := make([][]string, len(ckts))
	requests := make([][]halotis.Request, len(ckts))
	for w, ckt := range ckts {
		ls, err := local.Open(ctx, ckt)
		if err != nil {
			return "", err
		}
		baseline[w] = make([]string, variants)
		requests[w] = make([]halotis.Request, variants)
		for v := 0; v < variants; v++ {
			req := halotis.Request{TEnd: 30, Stimulus: toggleStimulus(ls.Circuit().Inputs, v+1)}
			rep, err := ls.Run(ctx, req)
			if err != nil {
				ls.Close()
				return "", fmt.Errorf("baseline run %d/%d: %w", w, v, err)
			}
			baseline[w][v] = reportSignature(rep)
			requests[w][v] = req
		}
		ls.Close()
		rs, err := remote.Open(ctx, ckt)
		if err != nil {
			return "", fmt.Errorf("open workload %d on router: %w", w, err)
		}
		defer rs.Close()
		sessions[w] = rs
	}

	// The scripted schedule targets real placements: kill the primary of
	// circuit 0, later slow the primary of circuit 1.
	killGate := gateByID[cl.Placement(sessions[0].Circuit().ID)[0]]
	slowGate := gateByID[cl.Placement(sessions[1].Circuit().ID)[0]]

	// Soak: clients hammer both circuits round-robin while the controller
	// walks the fault schedule in quarters of the run.
	var (
		next       atomic.Int64
		failures   atomic.Int64
		divergent  atomic.Int64
		degraded   atomic.Int64
		latMu      sync.Mutex
		lats       []time.Duration
		phases     []string
		soakEnd    = time.Now().Add(dur)
		quarter    = dur / 4
		wg         sync.WaitGroup
		controller sync.WaitGroup
		phase      = func(f string, a ...any) { phases = append(phases, fmt.Sprintf(f, a...)) }
	)
	phase("0/4: all healthy (hedge warmup, result-cache fill)")
	controller.Add(1)
	go func() {
		defer controller.Done()
		time.Sleep(quarter)
		killGate.down.Store(true)
		time.Sleep(quarter)
		killGate.down.Store(false)
		slowGate.delayMs.Store(slowMs)
		time.Sleep(quarter)
		slowGate.delayMs.Store(0)
	}()
	phase("1/4: kill the primary of circuit 0 (failover, breaker opens)")
	phase("2/4: revive it, slow the primary of circuit 1 by %dms (probe recovery, hedged reads)", slowMs)
	phase("3/4: clear all faults (recovery tail)")

	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(soakEnd) {
				i := int(next.Add(1)) - 1
				w := i % len(sessions)
				v := (i / len(sessions)) % variants
				rctx, cancel := context.WithTimeout(ctx, clientTO)
				t0 := time.Now()
				rep, err := sessions[w].Run(rctx, requests[w][v])
				cancel()
				if err != nil {
					failures.Add(1)
					continue
				}
				if rep.Degraded {
					degraded.Add(1)
				}
				if reportSignature(rep) != baseline[w][v] {
					divergent.Add(1)
				}
				latMu.Lock()
				lats = append(lats, time.Since(t0))
				latMu.Unlock()
			}
		}()
	}
	wg.Wait()
	controller.Wait()
	total := int(next.Load())

	// Blackout probe: with every replica dead, a previously served request
	// must still answer — stale from the router's result cache, flagged
	// Degraded, and identical to the baseline.
	for _, n := range nodes {
		n.gate.down.Store(true)
	}
	phase("probe: full blackout, re-issue a served request (stale serve)")
	rctx, cancel := context.WithTimeout(ctx, clientTO)
	rep, err := sessions[0].Run(rctx, requests[0][0])
	cancel()
	if err != nil {
		return "", fmt.Errorf("blackout probe: want a degraded stale serve, got error: %w", err)
	}
	if !rep.Degraded {
		return "", fmt.Errorf("blackout probe: report not flagged Degraded")
	}
	if reportSignature(rep) != baseline[0][0] {
		return "", fmt.Errorf("blackout probe: stale serve diverged from baseline")
	}
	degraded.Add(1)
	for _, n := range nodes {
		n.gate.down.Store(false)
	}

	// Deadline probe: an exhausted budget is shed at router admission.
	phase("probe: request with an expired deadline budget (admission shed)")
	hreq, err := http.NewRequest(http.MethodPost, router.URL+"/v1/simulate",
		strings.NewReader(fmt.Sprintf(`{"circuit":%q,"t_end":30}`, sessions[0].Circuit().ID)))
	if err != nil {
		return "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(api.BudgetHeader, "0")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return "", fmt.Errorf("deadline probe: %w", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusGatewayTimeout {
		return "", fmt.Errorf("deadline probe: status %d, want 504", hresp.StatusCode)
	}

	counters, err := scrapeRouterCounters(router.URL)
	if err != nil {
		return "", fmt.Errorf("scrape router metrics: %w", err)
	}

	slices.Sort(lats)
	p50, p99 := percentile(lats, 0.50), percentile(lats, 0.99)

	// The soak's hard assertions: correctness first, then proof that each
	// resilience mechanism actually fired.
	if n := divergent.Load(); n != 0 {
		return "", fmt.Errorf("chaos soak: %d divergent reports (want 0)", n)
	}
	if d := time.Duration(p99) * time.Microsecond; d >= clientTO/2 {
		return "", fmt.Errorf("chaos soak: p99 %v not bounded (want < %v)", d, clientTO/2)
	}
	for _, name := range []string{"hedges_total", "failovers_total", "breaker_opens_total",
		"breaker_closes_total", "degraded_serves_total", "deadline_shed_total"} {
		if counters[name] == 0 {
			return "", fmt.Errorf("chaos soak: %s is 0 — that mechanism never fired", name)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Chaos soak: %d replicas (replication %d), %d clients, %v, %s\n",
		nReplicas, replication, clients, dur.Round(time.Millisecond), runtime.Version())
	for _, p := range phases {
		fmt.Fprintf(&b, "  phase %s\n", p)
	}
	fmt.Fprintf(&b, "%d requests, %d failed during fault windows, 0 divergent reports, %d degraded\n",
		total, failures.Load(), degraded.Load())
	fmt.Fprintf(&b, "latency p50 %.0fus p99 %.0fus (bounded under the %v client deadline)\n",
		p50, p99, clientTO)
	fmt.Fprintf(&b, "hedges %d (%.1f%% of requests, %d won), failovers %d, reuploads %d\n",
		counters["hedges_total"], 100*float64(counters["hedges_total"])/float64(total),
		counters["hedge_wins_total"], counters["failovers_total"], counters["reuploads_total"])
	fmt.Fprintf(&b, "breaker opens %d closes %d skips %d, degraded serves %d, deadline sheds %d\n",
		counters["breaker_opens_total"], counters["breaker_closes_total"], counters["breaker_skips_total"],
		counters["degraded_serves_total"], counters["deadline_shed_total"])
	return b.String(), nil
}
