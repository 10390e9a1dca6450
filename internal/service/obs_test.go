package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"halotis/api"
	"halotis/client"
	"halotis/internal/netfmt"
	"halotis/internal/obs"
	"halotis/internal/service"
)

// newTracedService is newTestService plus the raw URL, for tests that
// speak HTTP directly (error bodies, headers).
func newTracedService(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// TestTracedRequestSpanTree is the tentpole's replica-side acceptance: one
// traced simulate yields a retrievable trace whose span tree covers the
// request's whole life — root, queue wait, compile, engine acquire, kernel
// run, report build — all parented under the root, and the report echoes
// the trace ID.
func TestTracedRequestSpanTree(t *testing.T) {
	_, ts := newTracedService(t, service.Config{})
	ctx := context.Background()
	c := client.New(ts.URL, client.WithTracing())

	// Inline netlist so the compile happens inside this traced request.
	rep, err := c.Simulate(ctx, client.SimRequest{
		Netlist: netfmt.C17Bench(), Format: "bench",
		Request: client.Request{TEnd: 30, Profile: true, Stimulus: c17WireStimulus()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceID == "" {
		t.Fatal("traced report carries no trace_id")
	}
	if rep.Profile == nil || len(rep.Profile.Workers) == 0 {
		t.Fatalf("profiled report carries no kernel profile: %+v", rep.Profile)
	}
	if ev := rep.Profile.Workers[0].EventsProcessed; ev == 0 || ev != rep.Stats.EventsProcessed {
		t.Errorf("profile events = %d, want Stats.EventsProcessed %d", ev, rep.Stats.EventsProcessed)
	}

	tr, err := c.Trace(ctx, rep.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]api.SpanInfo{}
	byName := map[string]api.SpanInfo{}
	for _, s := range tr.Spans {
		byID[s.SpanID] = s
		byName[s.Name] = s
	}
	root, ok := byName["replica.request"]
	if !ok {
		t.Fatalf("trace has no replica.request root: %+v", tr.Spans)
	}
	for _, name := range []string{"queue.wait", "compile", "engine.acquire", "kernel.run", "report.build"} {
		s, ok := byName[name]
		if !ok {
			t.Errorf("trace missing span %q", name)
			continue
		}
		if s.ParentID != root.SpanID {
			t.Errorf("span %q parent = %q, want the root %q", name, s.ParentID, root.SpanID)
		}
		if s.DurationNs < 0 {
			t.Errorf("span %q has negative duration %d", name, s.DurationNs)
		}
	}
	// The root's own parent is the client's send span — the one span ID
	// that is NOT recorded on the replica (each node serves its own spans).
	if root.ParentID == "" {
		t.Error("root has no parent; the client's span should have propagated")
	}
	if _, onReplica := byID[root.ParentID]; onReplica {
		t.Error("root's parent resolved inside the replica trace; want the client-side span")
	}
	if root.Attrs["status"] != "200" {
		t.Errorf("root status attr = %q, want 200", root.Attrs["status"])
	}

	// The client recorded its side of the same trace locally.
	local, ok := c.LocalTrace(rep.TraceID)
	if !ok {
		t.Fatal("client recorded no local trace")
	}
	var send *client.SpanInfo
	for i := range local.Spans {
		if local.Spans[i].Name == "client.send" {
			send = &local.Spans[i]
		}
	}
	if send == nil {
		t.Fatalf("client trace has no client.send span: %+v", local.Spans)
	}
	if send.SpanID != root.ParentID {
		t.Errorf("replica root parent = %q, want the client.send span %q", root.ParentID, send.SpanID)
	}

	// The summary listing includes the trace (the listing fetch itself is
	// traced too, so it need not be first).
	sums, err := c.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sums {
		if s.TraceID == rep.TraceID {
			found = true
			if s.Root != "replica.request" || s.Spans != len(tr.Spans) {
				t.Errorf("summary = %+v, want root replica.request with %d spans", s, len(tr.Spans))
			}
		}
	}
	if !found {
		t.Errorf("trace %s missing from the listing %+v", rep.TraceID, sums)
	}
}

// TestUntracedRequestRecordsNothing pins tracing-off: no header means no
// trace recorded, no trace ID echoed — the default path stays dark.
func TestUntracedRequestRecordsNothing(t *testing.T) {
	_, ts := newTracedService(t, service.Config{})
	ctx := context.Background()
	c := client.New(ts.URL)
	rep, err := c.Simulate(ctx, client.SimRequest{
		Netlist: netfmt.C17Bench(), Format: "bench",
		Request: client.Request{TEnd: 30, Stimulus: c17WireStimulus()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceID != "" {
		t.Errorf("untraced report carries trace_id %q", rep.TraceID)
	}
	if rep.Profile != nil {
		t.Error("unprofiled report carries a kernel profile")
	}
	sums, err := c.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 0 {
		t.Errorf("untraced traffic recorded %d traces", len(sums))
	}
}

// TestErrorResponseCarriesTraceID: failures are as traceable as successes.
func TestErrorResponseCarriesTraceID(t *testing.T) {
	_, ts := newTracedService(t, service.Config{})
	body, _ := json.Marshal(api.SimRequest{Request: api.Request{TEnd: 30}}) // no target: 400
	req, err := http.NewRequest("POST", ts.URL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	api.StampTrace(req.Header, "00000000feedface", "cafe0123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.TraceID != "00000000feedface" {
		t.Errorf("error trace_id = %q, want the propagated ID", er.TraceID)
	}

	// The failed request still recorded a trace whose root carries the
	// error status.
	var tr api.TraceResponse
	tresp, err := http.Get(ts.URL + "/v1/traces/00000000feedface")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("failed traced request recorded no spans")
	}
	if got := tr.Spans[len(tr.Spans)-1].Attrs["status"]; got != "400" {
		t.Errorf("root status attr = %q, want 400", got)
	}

	// An unknown trace is a 404.
	nf, err := http.Get(ts.URL + "/v1/traces/nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status = %d, want 404", nf.StatusCode)
	}
}

// TestReplicaMetricsLintClean: the replica's whole /metrics page — with
// traffic behind it so every histogram has samples — passes the
// Prometheus text-format validator, and the new series are present.
func TestReplicaMetricsLintClean(t *testing.T) {
	_, ts := newTracedService(t, service.Config{})
	ctx := context.Background()
	c := client.New(ts.URL, client.WithTracing())
	if _, err := c.Simulate(ctx, client.SimRequest{
		Netlist: netfmt.C17Bench(), Format: "bench",
		Request: client.Request{TEnd: 30, Stimulus: c17WireStimulus()},
	}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.LintPrometheusText(m); len(errs) != 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatalf("replica /metrics fails the validator")
	}
	for _, series := range []string{
		`halotisd_request_duration_seconds_bucket{endpoint="simulate",le="+Inf"} 1`,
		`halotisd_queue_wait_seconds_count`,
		`halotisd_kernel_run_seconds_count 1`,
		`halotisd_traces_started_total 1`,
		`halotisd_go_goroutines`,
	} {
		if !strings.Contains(m, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestReplicaMetricFamiliesGolden pins the replica's /metrics family names
// and kinds (the sorted "# TYPE" lines) to testdata: dashboards and the
// benchmark harness scrape families such as halotisd_queue_rejected_total
// and halotisd_queue_wait_seconds by name, so a rename must be deliberate.
// Exposition order is not part of the contract. Regenerate with
// go test ./internal/service -run MetricFamilies -update.
func TestReplicaMetricFamiliesGolden(t *testing.T) {
	_, ts := newTracedService(t, service.Config{})
	m, err := client.New(ts.URL).Metrics(context.Background())
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
