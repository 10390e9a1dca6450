package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"halotis/api"
	"halotis/client"
	"halotis/internal/netfmt"
	"halotis/internal/service"
)

// TestDeadlineBudgetPropagates: a client context deadline reaches the
// server as a budget header and the taxonomy distinguishes a shed from an
// ordinary failure.
func TestDeadlineBudgetPropagates(t *testing.T) {
	_, c := newTestService(t, service.Config{})
	ctx := context.Background()

	up, err := c.UploadCircuit(ctx, client.UploadRequest{Netlist: netfmt.C17Bench(), Format: "bench"})
	if err != nil {
		t.Fatal(err)
	}

	// A roomy deadline still succeeds (the budget narrows, not breaks, the
	// request).
	roomy, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if _, err := c.Simulate(roomy, client.SimRequest{Circuit: up.ID, Request: c17Request(c17WireStimulus(), 30)}); err != nil {
		t.Fatalf("simulate with roomy deadline: %v", err)
	}

	// An already-expired budget is shed locally, before any bytes hit the
	// wire.
	dead, cancel2 := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel2()
	_, err = c.Simulate(dead, client.SimRequest{Circuit: up.ID, Request: c17Request(c17WireStimulus(), 30)})
	if !errors.Is(err, api.ErrDeadlineExceeded) {
		t.Fatalf("expired-deadline simulate err = %v, want ErrDeadlineExceeded", err)
	}
}

// TestBudgetShedAtAdmission: a request arriving with a zero budget header
// (stamped by an upstream hop whose deadline died in flight) is refused at
// the middleware with 504 deadline_exceeded, before parsing or queueing.
func TestBudgetShedAtAdmission(t *testing.T) {
	s := service.New(service.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	body := `{"netlist":"INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n","format":"bench","t_end":10}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.BudgetHeader, "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var eresp api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Code != api.CodeDeadlineExceeded {
		t.Fatalf("code = %q, want %q", eresp.Code, api.CodeDeadlineExceeded)
	}
	if !errors.Is(eresp.Err(), api.ErrDeadlineExceeded) {
		t.Fatalf("reconstructed err = %v, want ErrDeadlineExceeded", eresp.Err())
	}
	if s.QueueStats().Executed != 0 {
		t.Errorf("shed request reached the worker queue; executed = %d", s.QueueStats().Executed)
	}
}

// TestBudgetShedCountsAgainstSLO: a request shed at admission is a bad
// request like any other failure — it lands in both SLO windows and in the
// flight recorder flagged shed and pinned, and the 504 still carries the
// caller's trace ID.
func TestBudgetShedCountsAgainstSLO(t *testing.T) {
	_, ts := newTracedService(t, service.Config{})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(`{"circuit":"deadbeef","t_end":10}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.BudgetHeader, "0")
	api.StampTrace(req.Header, "00000000000005ed", "")
	resp, err := http.DefaultClient.Do(req)
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
	c := client.New(ts.URL)
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range st.Windows {
		if w.Requests != 1 || w.BadRequests != 1 {
			t.Errorf("window %q = %g requests, %g bad; want the shed counted 1/1", w.Name, w.Requests, w.BadRequests)
		}
	}
	fr, err := c.FlightRecords(ctx, 0)
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

// TestBudgetHeaderRoundTrip pins the stamping math: the client writes a
// positive remaining-ms value that the server-side parser accepts.
func TestBudgetHeaderRoundTrip(t *testing.T) {
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(api.BudgetHeader)
		json.NewEncoder(w).Encode(api.HealthResponse{Status: "ok"})
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.New(ts.URL).Health(ctx); err != nil {
		t.Fatal(err)
	}
	hdr := http.Header{}
	hdr.Set(api.BudgetHeader, got)
	budget, ok := api.BudgetFrom(hdr)
	if !ok || budget <= 0 || budget > 30*time.Second {
		t.Fatalf("propagated budget = %v, %v (header %q); want (0s, 30s]", budget, ok, got)
	}

	// No deadline, no header.
	got = "header not cleared"
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(api.BudgetHeader)
		json.NewEncoder(w).Encode(api.HealthResponse{Status: "ok"})
	}))
	defer ts2.Close()
	if _, err := client.New(ts2.URL).Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != "" {
		t.Fatalf("deadline-less request carried budget header %q", got)
	}
}
