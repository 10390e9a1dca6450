package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"halotis"
	"halotis/api"
	"halotis/api/backendtest"
	"halotis/client"
	"halotis/internal/service"
)

// flakyReplica is a testReplica whose frontend can be degraded at runtime:
// down aborts every connection (what a crashed node looks like) and can be
// cleared again to model a restart; delayMs adds latency to simulate
// routes (what an overloaded node looks like); abortSim aborts a simulate
// after its delay (a node that dies mid-request).
type flakyReplica struct {
	*testReplica
	down     atomic.Bool
	delayMs  atomic.Int64
	abortSim atomic.Bool
}

func startFlakyReplicas(t *testing.T, n int) []*flakyReplica {
	t.Helper()
	out := make([]*flakyReplica, n)
	for i := range out {
		cfg := service.Config{ReplicaID: fmt.Sprintf("r%d", i+1)}
		svc := service.New(cfg)
		fr := &flakyReplica{}
		h := svc.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if fr.down.Load() {
				panic(http.ErrAbortHandler)
			}
			sim := strings.HasPrefix(r.URL.Path, "/v1/simulate")
			if d := fr.delayMs.Load(); d > 0 && sim {
				select {
				case <-time.After(time.Duration(d) * time.Millisecond):
				case <-r.Context().Done():
					return
				}
			}
			if sim && fr.abortSim.Load() {
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		}))
		fr.testReplica = &testReplica{id: cfg.ReplicaID, svc: svc, ts: ts}
		out[i] = fr
	}
	t.Cleanup(func() {
		for _, fr := range out {
			fr.ts.Close()
			fr.svc.Close()
		}
	})
	return out
}

func plainReplicas(frs []*flakyReplica) []*testReplica {
	out := make([]*testReplica, len(frs))
	for i, fr := range frs {
		out[i] = fr.testReplica
	}
	return out
}

func c17Session(t *testing.T, c *Cluster) (halotis.Session, halotis.Request) {
	t.Helper()
	ckt := backendtest.Circuits(t)["c17"]
	sess, err := c.Open(context.Background(), ckt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	req := halotis.Request{
		TEnd:     30,
		Stimulus: halotis.WireStimulus(backendtest.StimulusFor(t, "c17", ckt)),
	}
	return sess, req
}

// TestBreakerEventsAndRecovery: a transport failure opens the replica's
// breaker (with a state event), a failing probe keeps it open, and a
// succeeding probe closes it again — the full down/recover lifecycle,
// observable through WithStateListener, Topology and the metrics page.
func TestBreakerEventsAndRecovery(t *testing.T) {
	ctx := context.Background()
	frs := startFlakyReplicas(t, 2)
	var mu sync.Mutex
	var events []ReplicaEvent
	c := newTestCluster(t, plainReplicas(frs), WithReplication(1),
		WithStateListener(func(ev ReplicaEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}))
	sess, req := c17Session(t, c)
	if _, err := sess.Run(ctx, req); err != nil {
		t.Fatal(err)
	}

	primary := c.Placement(sess.Circuit().ID)[0]
	var prim *flakyReplica
	for _, fr := range frs {
		if fr.id == primary {
			prim = fr
		}
	}
	prim.down.Store(true)

	// The next run fails over (repairing the target by re-upload) and the
	// dead primary's breaker opens.
	rep, err := sess.Run(ctx, req)
	if err != nil {
		t.Fatalf("run with primary down: %v", err)
	}
	if rep.Replica == primary {
		t.Fatalf("report attributed to the dead primary %s", primary)
	}
	findEvent := func(from, to BreakerState) *ReplicaEvent {
		mu.Lock()
		defer mu.Unlock()
		for i := range events {
			if events[i].Replica == primary && events[i].From == from && events[i].To == to {
				return &events[i]
			}
		}
		return nil
	}
	if ev := findEvent(BreakerClosed, BreakerOpen); ev == nil {
		t.Fatalf("no closed→open event for %s; events: %v", primary, events)
	}
	stateOf := func(id string) string {
		for _, ri := range c.Topology().Replicas {
			if ri.ID == id {
				return ri.State
			}
		}
		return "?"
	}
	if got := stateOf(primary); got != "open" {
		t.Fatalf("primary state = %q, want open", got)
	}

	// A probe against the still-dead primary must not revive it.
	c.ProbeNow()
	if got := stateOf(primary); got != "open" {
		t.Fatalf("state after failing probe = %q, want open", got)
	}

	// Restart the replica: the next probe is the recovery trial.
	prim.down.Store(false)
	c.ProbeNow()
	if ev := findEvent(BreakerOpen, BreakerClosed); ev == nil || ev.Reason != "probe ok" {
		t.Fatalf("no open→closed probe event for %s; events: %v", primary, events)
	}
	if got := stateOf(primary); got != "closed" {
		t.Fatalf("state after recovery = %q, want closed", got)
	}

	rec := httptest.NewRecorder()
	c.node.WriteMetrics(rec, c.writeMetrics)
	want := fmt.Sprintf("halotisd_router_replica_state_changes_total{replica=%q} 2", primary)
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("metrics missing %q", want)
	}
}

// TestBreakerCooldownHalfOpenTrial pins the open → half-open → closed
// request path: while cooling, requests are refused (the single forced
// last-resort attempt aside); after the cooldown one trial request is
// admitted and its success closes the breaker.
func TestBreakerCooldownHalfOpenTrial(t *testing.T) {
	ctx := context.Background()
	frs := startFlakyReplicas(t, 1)
	var mu sync.Mutex
	var events []ReplicaEvent
	c := newTestCluster(t, plainReplicas(frs), WithReplication(1),
		WithBreakerPolicy(BreakerPolicy{FailureThreshold: 1, Cooldown: 50 * time.Millisecond}),
		WithStateListener(func(ev ReplicaEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}))
	sess, req := c17Session(t, c)
	if _, err := sess.Run(ctx, req); err != nil {
		t.Fatal(err)
	}

	frs[0].down.Store(true)
	if _, err := sess.Run(ctx, req); err == nil {
		t.Fatal("run against the only (dead) replica succeeded")
	}
	// While cooling, the breaker refuses; the forced last-resort attempt
	// still fails against the dead node.
	if _, err := sess.Run(ctx, req); err == nil {
		t.Fatal("cooled-down run succeeded against a dead replica")
	}
	if c.met.breakerSkips.Load() == 0 {
		t.Fatal("no breaker skip recorded for the cooling replica")
	}

	frs[0].down.Store(false)
	time.Sleep(80 * time.Millisecond) // let the (refreshed) cooldown elapse
	if _, err := sess.Run(ctx, req); err != nil {
		t.Fatalf("trial run after recovery: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	var seq []string
	for _, ev := range events {
		seq = append(seq, fmt.Sprintf("%s→%s", ev.From, ev.To))
	}
	joined := strings.Join(seq, " ")
	for _, want := range []string{"closed→open", "open→half-open", "half-open→closed"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %s transition; got %s", want, joined)
		}
	}
}

// TestHedgedReadBeatsSlowReplica: with one member of the placement set
// responding slowly, runs that rank it first hedge to the fast member and
// win, so every run stays fast and error-free.
func TestHedgedReadBeatsSlowReplica(t *testing.T) {
	ctx := context.Background()
	frs := startFlakyReplicas(t, 2)
	c := newTestCluster(t, plainReplicas(frs), WithReplication(2),
		WithHedgePolicy(HedgePolicy{Quantile: 0.5, MinDelay: 5 * time.Millisecond, MaxRatio: 1, Warmup: 1}))
	sess, req := c17Session(t, c)
	// Warm both replicas' latency trackers.
	for i := 0; i < 4; i++ {
		if _, err := sess.Run(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	slowID := c.Placement(sess.Circuit().ID)[0]
	for _, fr := range frs {
		if fr.id == slowID {
			fr.delayMs.Store(300)
		}
	}
	start := time.Now()
	for i := 0; i < 12; i++ {
		rep, err := sess.Run(ctx, req)
		if err != nil {
			t.Fatalf("hedged run %d: %v", i, err)
		}
		if rep.Replica == "" {
			t.Fatalf("run %d: no replica attribution", i)
		}
	}
	if c.met.hedges.Load() == 0 {
		t.Fatal("no hedge fired against the slow replica")
	}
	if c.met.hedgeWins.Load() == 0 {
		t.Fatal("no hedge won against the slow replica")
	}
	// 12 runs at 300ms each would take 3.6s serially; hedging keeps the
	// wall clock far below the sum of the injected delays.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("12 runs took %v; hedging did not mask the slow replica", elapsed)
	}
}

// hedgeSoon is TestHedgedReadBeatsSlowReplica's policy: one latency
// sample arms a hedge, which fires after 5ms or the primary's median.
var hedgeSoon = WithHedgePolicy(HedgePolicy{Quantile: 0.5, MinDelay: 5 * time.Millisecond, MaxRatio: 1, Warmup: 1})

// TestFailoverAroundHedge pins where failover and hedging meet in the
// routing loop. R=1, so candidates come in rendezvous order and only the
// primary holds the circuit: every other server is repaired by re-upload.
// A primary that fails before its armed hedge fires fails over without
// hedging, even to a target slower than the hedge delay: a hedge races
// only the first attempt. A hedge that fails while the primary is in
// flight waits for the primary, whose failure then launches the third
// candidate; the hedge wins nothing.
func TestFailoverAroundHedge(t *testing.T) {
	for _, tc := range []struct {
		name           string
		primaryDelayMs int64
		secondDelayMs  int64
		abortSecond    bool
		servedByRank   int
		hedges         uint64
	}{
		{name: "primary fails before the hedge timer", secondDelayMs: 60, servedByRank: 1},
		{name: "hedge fails, then the primary", primaryDelayMs: 60, abortSecond: true, servedByRank: 2, hedges: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			frs := startFlakyReplicas(t, 3)
			c := newTestCluster(t, plainReplicas(frs), WithReplication(1), hedgeSoon)
			sess, req := c17Session(t, c)
			// One run gives the primary the latency sample that arms the hedge.
			if _, err := sess.Run(ctx, req); err != nil {
				t.Fatal(err)
			}
			ranked := c.ranked(sess.Circuit().ID)
			for _, fr := range frs {
				switch fr.id {
				case ranked[0].id:
					fr.delayMs.Store(tc.primaryDelayMs)
					fr.abortSim.Store(true)
				case ranked[1].id:
					fr.delayMs.Store(tc.secondDelayMs)
					fr.abortSim.Store(tc.abortSecond)
				}
			}
			met := &c.met
			before := [4]uint64{met.hedges.Load(), met.hedgeWins.Load(), met.failovers.Load(), met.reuploads.Load()}
			rep, err := sess.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if want := ranked[tc.servedByRank].id; rep.Replica != want {
				t.Errorf("served by %s, want %s", rep.Replica, want)
			}
			after := [4]uint64{met.hedges.Load(), met.hedgeWins.Load(), met.failovers.Load(), met.reuploads.Load()}
			got := [4]uint64{after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3] - before[3]}
			if want := [4]uint64{tc.hedges, 0, 1, 1}; got != want {
				t.Errorf("hedges, hedge wins, failovers, reuploads = %v, want %v", got, want)
			}
		})
	}
}

// TestRouterHedgeFlightRecordAndTrace: through the router face, a run the
// hedge target wins is filed in the flight recorder flagged hedged and
// pinned, and its trace shows the hedge as a router.hedge span whose
// router.attempt child names the hedge target.
func TestRouterHedgeFlightRecordAndTrace(t *testing.T) {
	ctx := context.Background()
	frs := startFlakyReplicas(t, 3)
	c := newTestCluster(t, plainReplicas(frs), WithReplication(1), hedgeSoon)
	rts := httptest.NewServer(c.Handler())
	t.Cleanup(rts.Close)
	cl := client.New(rts.URL)

	up, err := cl.UploadCircuit(ctx, api.UploadRequest{Netlist: halotis.C17BenchText(), Format: "bench", Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	req := api.SimRequest{Circuit: up.ID, Request: api.Request{
		TEnd:     30,
		Stimulus: api.Stimulus{"1": {Edges: []api.Edge{{T: 2, Rising: true, Slew: 0.2}}}},
	}}
	if _, err := cl.Simulate(ctx, req); err != nil {
		t.Fatal(err)
	}
	ranked := c.ranked(up.ID)
	for _, fr := range frs {
		if fr.id == ranked[0].id {
			fr.delayMs.Store(300)
		}
	}
	rep, err := cl.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	target := ranked[1].id
	if rep.Replica != target {
		t.Fatalf("served by %s, want the hedge target %s", rep.Replica, target)
	}

	recs, err := cl.FlightRecords(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hedged *api.FlightRecord
	for i, rec := range recs.Records {
		if rec.Route == "simulate" && rec.Hedged {
			hedged = &recs.Records[i]
		}
	}
	if hedged == nil || !hedged.Pinned {
		t.Fatalf("no simulate filed hedged and pinned: %+v", recs.Records)
	}
	tr, err := cl.Trace(ctx, hedged.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var hedge *api.SpanInfo
	for i, sp := range tr.Spans {
		if sp.Name == "router.hedge" {
			hedge = &tr.Spans[i]
		}
	}
	if hedge == nil {
		t.Fatalf("hedged trace has no router.hedge span: %+v", tr.Spans)
	}
	hedgeAttempt := false
	var loser *api.SpanInfo
	for i, sp := range tr.Spans {
		if sp.Name != "router.attempt" {
			continue
		}
		if sp.ParentID == hedge.SpanID && sp.Attrs["replica"] == target {
			hedgeAttempt = true
		}
		if sp.Attrs["replica"] == ranked[0].id {
			loser = &tr.Spans[i]
		}
	}
	if !hedgeAttempt {
		t.Fatalf("router.hedge has no router.attempt child on %s: %+v", target, tr.Spans)
	}
	// The primary lost the race and was canceled on purpose: its attempt
	// and the attempt's client.send read as canceled, not failed.
	if loser == nil {
		t.Fatalf("hedged trace has no router.attempt on the primary %s: %+v", ranked[0].id, tr.Spans)
	}
	spans := []api.SpanInfo{*loser}
	for _, sp := range tr.Spans {
		if sp.Name == "client.send" && sp.ParentID == loser.SpanID {
			spans = append(spans, sp)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("primary's router.attempt has %d client.send children, want 1: %+v", len(spans)-1, tr.Spans)
	}
	for _, sp := range spans {
		if sp.Error != "" || sp.Attrs["canceled"] != "true" {
			t.Errorf("hedge loser's %s span: error %q, attrs %v; want no error and canceled=true", sp.Name, sp.Error, sp.Attrs)
		}
	}
}

// TestPartialBatchIsolatesFailures: AllowPartial turns a poisoned batch
// from all-or-nothing into per-slot outcomes, on both the Session face
// (PartialBatcher) and the wire face (BatchOptions).
func TestPartialBatchIsolatesFailures(t *testing.T) {
	ctx := context.Background()
	reps := startReplicas(t, 2, service.Config{})
	c := newTestCluster(t, reps, WithReplication(2))
	sess, req := c17Session(t, c)

	bad := halotis.Request{TEnd: 30, Waveforms: []string{"no_such_net"}}
	reqs := []halotis.Request{req, req, bad, req}

	// Default semantics: the bad request fails the whole batch.
	if _, err := sess.RunBatch(ctx, reqs); !errors.Is(err, api.ErrInvalidRequest) {
		t.Fatalf("RunBatch err = %v, want ErrInvalidRequest", err)
	}

	pb, ok := sess.(halotis.PartialBatcher)
	if !ok {
		t.Fatal("cluster session does not implement PartialBatcher")
	}
	reports, errs, err := pb.RunBatchPartial(ctx, reqs)
	if err != nil {
		t.Fatalf("RunBatchPartial: %v", err)
	}
	for i := range reqs {
		if i == 2 {
			if !errors.Is(errs[2], api.ErrInvalidRequest) {
				t.Fatalf("errs[2] = %v, want ErrInvalidRequest", errs[2])
			}
			if reports[2] != nil {
				t.Fatal("reports[2] non-nil for the failed request")
			}
			continue
		}
		if errs[i] != nil || reports[i] == nil {
			t.Fatalf("slot %d: report=%v err=%v, want report-only", i, reports[i], errs[i])
		}
	}

	// Wire face through the router.
	rts := httptest.NewServer(c.Handler())
	t.Cleanup(rts.Close)
	cl := client.New(rts.URL)
	resp, err := cl.SimulateBatch(ctx, api.BatchRequest{
		Circuit:  sess.Circuit().ID,
		Requests: []api.Request{req, bad},
		Options:  &api.BatchOptions{AllowPartial: true},
	})
	if err != nil {
		t.Fatalf("wire partial batch: %v", err)
	}
	if len(resp.Errors) != 2 || resp.Errors[0] != nil || resp.Errors[1] == nil {
		t.Fatalf("wire errors = %+v, want [nil, invalid]", resp.Errors)
	}
	if resp.Errors[1].Code != api.CodeInvalidRequest {
		t.Fatalf("wire error code = %q, want %q", resp.Errors[1].Code, api.CodeInvalidRequest)
	}
	if !errors.Is(resp.Errors[1].Err(), api.ErrInvalidRequest) {
		t.Fatalf("reconstructed error %v does not match ErrInvalidRequest", resp.Errors[1].Err())
	}
	if len(resp.Reports) != 2 || resp.Reports[0].Stats.EventsProcessed == 0 {
		t.Fatalf("wire reports = %+v, want a real report in slot 0", resp.Reports)
	}
}

// TestDegradedServeFromResultCache: with every replica down, a repeat of a
// previously answered simulation is served from the router's result cache,
// flagged Degraded — and a request the cache has never seen still fails.
func TestDegradedServeFromResultCache(t *testing.T) {
	ctx := context.Background()
	reps := startReplicas(t, 2, service.Config{})
	c := newTestCluster(t, reps, WithReplication(2))
	rts := httptest.NewServer(c.Handler())
	t.Cleanup(rts.Close)
	cl := client.New(rts.URL)

	up, err := cl.UploadCircuit(ctx, api.UploadRequest{Netlist: halotis.C17BenchText(), Format: "bench", Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	req := api.SimRequest{Circuit: up.ID, Request: api.Request{
		TEnd:     30,
		Stimulus: api.Stimulus{"1": {Edges: []api.Edge{{T: 2, Rising: true, Slew: 0.2}}}},
	}}
	fresh, err := cl.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Degraded {
		t.Fatal("fresh report flagged degraded")
	}
	profiled := req
	profiled.Request.Profile = true
	if _, err := cl.Simulate(ctx, profiled); err != nil {
		t.Fatal(err)
	}

	for _, r := range reps {
		r.kill()
	}

	stale, err := cl.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("simulate with all replicas down: %v (want degraded cache hit)", err)
	}
	if !stale.Degraded || !stale.Cached {
		t.Fatalf("cache-served report flagged degraded=%v cached=%v, want both", stale.Degraded, stale.Cached)
	}
	if fmt.Sprint(stale.Outputs) != fmt.Sprint(fresh.Outputs) {
		t.Fatalf("degraded outputs %v != fresh outputs %v", stale.Outputs, fresh.Outputs)
	}
	if c.met.degradedServes.Load() == 0 {
		t.Fatal("degraded_serves_total not incremented")
	}

	// The stale store keys like the replicas' result caches: a deadline or
	// a partition count does not change a result.
	same := req
	same.Request.TimeoutMs = 5000
	same.Request.Partitions = 2
	if rep, err := cl.Simulate(ctx, same); err != nil || !rep.Degraded {
		t.Fatalf("request differing only in timeout_ms and partitions: %v (want a degraded serve)", err)
	}

	// A request the cache never saw has nothing to degrade to, and a
	// profile describes one execution, so no profiled report is stored.
	other := req
	other.Request.TEnd = 40
	if _, err := cl.Simulate(ctx, other); err == nil {
		t.Fatal("unseen request served with every replica down")
	}
	if _, err := cl.Simulate(ctx, profiled); err == nil {
		t.Fatal("profiled request served from the stale store")
	}
}

// TestScatterCancelPromptNoLeak: when one chunk of a scattered batch fails
// terminally, the sibling chunks — parked on a slow replica — are canceled
// promptly and their goroutines drain; the batch reports the root cause.
func TestScatterCancelPromptNoLeak(t *testing.T) {
	ctx := context.Background()
	frs := startFlakyReplicas(t, 2)
	c := newTestCluster(t, plainReplicas(frs), WithReplication(2),
		WithHedgePolicy(HedgePolicy{Disabled: true}))
	sess, req := c17Session(t, c)

	place := c.Placement(sess.Circuit().ID)
	for _, fr := range frs {
		if fr.id == place[0] {
			fr.delayMs.Store(5000)
		}
	}
	// Chunk 0 → place[0] (slow); chunk 1 → place[1], which fails fast on
	// the invalid request and must cancel chunk 0 long before its delay.
	bad := halotis.Request{TEnd: 30, Waveforms: []string{"no_such_net"}}
	before := runtime.NumGoroutine()
	start := time.Now()
	_, err := sess.RunBatch(ctx, []halotis.Request{req, bad})
	if !errors.Is(err, api.ErrInvalidRequest) {
		t.Fatalf("RunBatch err = %v, want the root-cause ErrInvalidRequest", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("batch returned after %v; sibling chunk was not canceled promptly", elapsed)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterShedsExpiredBudget: the router's deadline middleware refuses a
// request whose propagated budget is already spent, before touching any
// replica.
func TestRouterShedsExpiredBudget(t *testing.T) {
	reps := startReplicas(t, 2, service.Config{})
	c := newTestCluster(t, reps, WithReplication(2))
	rts := httptest.NewServer(c.Handler())
	t.Cleanup(rts.Close)

	hreq, _ := http.NewRequest(http.MethodPost, rts.URL+"/v1/simulate", strings.NewReader(`{"circuit":"deadbeef","t_end":10}`))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(api.BudgetHeader, "0")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if c.node.DeadlineShed.Load() != 1 {
		t.Fatalf("deadline_shed = %d, want 1", c.node.DeadlineShed.Load())
	}
	served := uint64(0)
	for _, r := range c.replicas {
		served += r.served.Load()
	}
	if served != 0 {
		t.Fatalf("shed request reached a replica (served=%d)", served)
	}
}

// TestRouterBudgetShedCountsAgainstSLO: a request the router sheds at
// admission counts as SLO-bad in both windows and is filed in the flight
// recorder flagged shed and pinned, with the caller's trace ID on the 504.
func TestRouterBudgetShedCountsAgainstSLO(t *testing.T) {
	c := newTestCluster(t, startReplicas(t, 1, service.Config{}))
	rts := httptest.NewServer(c.Handler())
	t.Cleanup(rts.Close)

	hreq, _ := http.NewRequest(http.MethodPost, rts.URL+"/v1/simulate", strings.NewReader(`{"circuit":"deadbeef","t_end":10}`))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(api.BudgetHeader, "0")
	api.StampTrace(hreq.Header, "00000000000005ed", "")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var eresp api.ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&eresp)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || eresp.TraceID != "00000000000005ed" {
		t.Fatalf("shed = %d trace %q, want 504 carrying the caller's trace ID", resp.StatusCode, eresp.TraceID)
	}

	ctx := context.Background()
	cl := client.New(rts.URL)
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range st.Windows {
		if w.Requests != 1 || w.BadRequests != 1 {
			t.Errorf("window %q = %g requests, %g bad; want the shed counted 1/1", w.Name, w.Requests, w.BadRequests)
		}
	}
	fr, err := cl.FlightRecords(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Recorded != 1 || len(fr.Records) != 1 {
		t.Fatalf("recorded = %d, want the shed request filed", fr.Recorded)
	}
	if rec := fr.Records[0]; !rec.Shed || !rec.Pinned || rec.TraceID != "00000000000005ed" ||
		rec.Code != api.CodeDeadlineExceeded {
		t.Errorf("shed record = %+v, want shed+pinned with the trace ID and deadline code", rec)
	}
}

// TestRouterRetryAfterRoundsUp: a replica's overload hint reaches the
// router's caller under the same Retry-After rule the replica applies —
// whole seconds rounded up, so 1400ms is "2", never an early "1".
func TestRouterRetryAfterRoundsUp(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"overloaded","code":"overloaded","retry_after_ms":1400,"replica":"r1"}`)
	}))
	t.Cleanup(busy.Close)
	c, err := New([]string{busy.URL}, WithReplicaIDs("r1"), WithProbeInterval(0),
		WithRetry(client.RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rts := httptest.NewServer(c.Handler())
	t.Cleanup(rts.Close)

	resp, err := http.Post(rts.URL+"/v1/simulate", "application/json", strings.NewReader(`{"circuit":"deadbeef","t_end":10}`))
	if err != nil {
		t.Fatal(err)
	}
	var eresp api.ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&eresp)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || eresp.RetryAfterMs != 1400 || eresp.Replica != "r1" {
		t.Fatalf("router relayed %d %+v, want 503 with the replica's 1400ms hint", resp.StatusCode, eresp)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\" (1400ms rounded up)", got)
	}
}
