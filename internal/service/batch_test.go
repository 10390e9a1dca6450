package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"halotis/api"
	"halotis/client"
	"halotis/internal/netfmt"
)

// TestBatchShedWhileQueued: a batch whose deadline budget runs out while
// its admission job waits for the held slot is answered 504
// deadline_exceeded, counted as a deadline shed and as one SLO-bad
// request, like /v1/simulate under the same load — not an empty 200.
func TestBatchShedWhileQueued(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	if err := s.gate.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.gate.Leave) // runs first: Close waits for the slot holder
	shedBefore := s.node.DeadlineShed.Load()

	body, err := json.Marshal(BatchRequest{Netlist: netfmt.C17Bench(), Format: "bench", Requests: []Request{{
		TEnd:     30,
		Stimulus: Stimulus{"1": {Edges: []Edge{{T: 2, Rising: true, Slew: 0.2}}}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.BudgetHeader, "20")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var eresp api.ErrorResponse
	decErr := json.NewDecoder(resp.Body).Decode(&eresp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || decErr != nil || eresp.Code != api.CodeDeadlineExceeded {
		t.Fatalf("batch shed while queued = %d %+v (decode: %v), want 504 %q", resp.StatusCode, eresp, decErr, api.CodeDeadlineExceeded)
	}
	if got := s.node.DeadlineShed.Load() - shedBefore; got != 1 {
		t.Errorf("deadline sheds = %d, want 1", got)
	}

	st, err := client.New(ts.URL).Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range st.Windows {
		if w.Requests != 1 || w.BadRequests != 1 {
			t.Errorf("window %q = %g requests, %g bad; want the shed batch counted 1/1", w.Name, w.Requests, w.BadRequests)
		}
	}
}
