package cluster

import (
	"bytes"
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"halotis"
	"halotis/api"
	"halotis/client"
	"halotis/internal/obs"
	"halotis/internal/service"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the router logs from request
// and probe paths concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTracedFailoverShowsExtraAttempt is the tentpole's acceptance at the
// router: a traced request whose first-ranked replica is dead yields a
// retrievable trace showing the failed attempt next to the one that
// served — the extra router.attempt span with its error.
func TestTracedFailoverShowsExtraAttempt(t *testing.T) {
	ctx := context.Background()
	reps := startReplicas(t, 3, service.Config{})
	c := newTestCluster(t, reps, WithReplication(1))
	rts := httptest.NewServer(c.Handler())
	t.Cleanup(rts.Close)
	cl := client.New(rts.URL, client.WithTracing())

	up, err := cl.UploadCircuit(ctx, api.UploadRequest{Netlist: halotis.C17BenchText(), Format: "bench", Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	req := api.SimRequest{Circuit: up.ID, Request: api.Request{
		TEnd:     30,
		Stimulus: api.Stimulus{"1": {Edges: []api.Edge{{T: 2, Rising: true, Slew: 0.2}}}},
	}}
	first, err := cl.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		if r.id == first.Replica {
			r.kill()
		}
	}

	// Vary the stimulus so the failover run cannot be served from the
	// router's degraded-mode result cache.
	req.Request.Stimulus["1"].Edges[0].T = 3
	second, err := cl.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("simulate after replica death: %v", err)
	}
	if second.TraceID == "" {
		t.Fatal("failover report carries no trace_id")
	}
	if second.Replica == first.Replica {
		t.Fatalf("second run still on dead replica %s", second.Replica)
	}

	tr, err := cl.Trace(ctx, second.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var root *client.SpanInfo
	var attempts []client.SpanInfo
	for i, s := range tr.Spans {
		switch s.Name {
		case "router.request":
			root = &tr.Spans[i]
		case "router.attempt":
			attempts = append(attempts, s)
		}
	}
	if root == nil {
		t.Fatalf("trace has no router.request root: %+v", tr.Spans)
	}
	if len(attempts) < 2 {
		t.Fatalf("failover trace has %d router.attempt spans, want >= 2 (the dead replica's and the survivor's): %+v", len(attempts), tr.Spans)
	}
	var failed, served bool
	for _, a := range attempts {
		if a.Attrs["replica"] == first.Replica && a.Error != "" {
			failed = true
		}
		if a.Attrs["replica"] == second.Replica && a.Error == "" {
			served = true
		}
	}
	if !failed {
		t.Errorf("no errored attempt against the dead replica %s: %+v", first.Replica, attempts)
	}
	if !served {
		t.Errorf("no clean attempt on the serving replica %s: %+v", second.Replica, attempts)
	}

	// The replica that served recorded its own side of the same trace —
	// the cross-node join the Node field exists for.
	for _, r := range reps {
		if r.id != second.Replica {
			continue
		}
		rtr, err := client.New(r.ts.URL).Trace(ctx, second.TraceID)
		if err != nil {
			t.Fatalf("fetch trace from serving replica: %v", err)
		}
		var kernelRun bool
		for _, s := range rtr.Spans {
			if s.Node != r.id {
				t.Errorf("replica span %s attributed to node %q, want %q", s.Name, s.Node, r.id)
			}
			if s.Name == "kernel.run" {
				kernelRun = true
			}
		}
		if !kernelRun {
			t.Errorf("serving replica's trace has no kernel.run span: %+v", rtr.Spans)
		}
	}
}

// TestBreakerTransitionsAreLogged: breaker transitions and passive failure
// marking emit through WithLogger, and the WithStateListener callback
// keeps receiving the exact same events it did before logging existed.
func TestBreakerTransitionsAreLogged(t *testing.T) {
	ctx := context.Background()
	frs := startFlakyReplicas(t, 2)
	var buf syncBuffer
	logger, err := obs.NewLogger("info", "text", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []ReplicaEvent
	c := newTestCluster(t, plainReplicas(frs), WithReplication(1),
		WithLogger(logger),
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
	for _, fr := range frs {
		if fr.id == primary {
			fr.down.Store(true)
		}
	}
	if _, err := sess.Run(ctx, req); err != nil {
		t.Fatalf("run with primary down: %v", err)
	}

	// The listener contract is unchanged: the closed→open event arrived
	// with the same fields as ever.
	mu.Lock()
	var opened *ReplicaEvent
	for i := range events {
		if events[i].Replica == primary && events[i].From == BreakerClosed && events[i].To == BreakerOpen {
			opened = &events[i]
		}
	}
	mu.Unlock()
	if opened == nil {
		t.Fatalf("listener received no closed→open event for %s: %v", primary, events)
	}
	if opened.Addr == "" || opened.Reason == "" {
		t.Errorf("event lost fields: %+v", opened)
	}

	// And the same transition also logged, plus the passive down-marking.
	out := buf.String()
	for _, want := range []string{
		"replica breaker transition",
		"replica=" + primary,
		"to=open",
		"replica marked down (passive)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
	// Opens are warnings — the actionable level.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "to=open") && !strings.Contains(line, "level=WARN") {
			t.Errorf("breaker open logged below WARN: %s", line)
		}
	}
}

// TestRouterMetricsLintClean: the router's /metrics page — histograms,
// trace counters, runtime gauges, per-replica series — passes the
// Prometheus text-format validator with traffic behind it.
func TestRouterMetricsLintClean(t *testing.T) {
	ctx := context.Background()
	reps := startReplicas(t, 2, service.Config{})
	c := newTestCluster(t, reps, WithReplication(1))
	rts := httptest.NewServer(c.Handler())
	t.Cleanup(rts.Close)
	cl := client.New(rts.URL, client.WithTracing())

	up, err := cl.UploadCircuit(ctx, api.UploadRequest{Netlist: halotis.C17BenchText(), Format: "bench"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Simulate(ctx, api.SimRequest{Circuit: up.ID, Request: api.Request{
		TEnd:     30,
		Stimulus: api.Stimulus{"1": {Edges: []api.Edge{{T: 2, Rising: true, Slew: 0.2}}}},
	}}); err != nil {
		t.Fatal(err)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.LintPrometheusText(m); len(errs) != 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatalf("router /metrics fails the validator")
	}
	for _, series := range []string{
		`halotisd_router_request_duration_seconds_bucket{endpoint="simulate",le="+Inf"} 1`,
		`halotisd_router_traces_started_total`,
		`halotisd_router_go_goroutines`,
		`halotisd_router_replica_healthy{replica="r1"} 1`,
	} {
		if !strings.Contains(m, series) {
			t.Errorf("router metrics missing %q", series)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestRouterMetricFamiliesGolden pins the router's /metrics family names
// and kinds (the sorted "# TYPE" lines) to testdata: dashboards and the
// benchmark harness scrape families such as halotisd_router_hedges_total
// by name, so a rename must be deliberate. Exposition order is not part of
// the contract. Regenerate with go test ./cluster -run MetricFamilies -update.
func TestRouterMetricFamiliesGolden(t *testing.T) {
	c := newTestCluster(t, startReplicas(t, 1, service.Config{}))
	rts := httptest.NewServer(c.Handler())
	t.Cleanup(rts.Close)
	m, err := client.New(rts.URL).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(m, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	sort.Strings(types)
	got := strings.Join(types, "\n") + "\n"
	golden := filepath.Join("testdata", "metrics_families.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics families drifted from %s:\ngot:\n%swant:\n%s", golden, got, want)
	}
}
