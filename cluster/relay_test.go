package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"halotis"
	"halotis/api"
	"halotis/client"
	"halotis/internal/service"
)

// exchange is one simulate call between router and replica, as it crossed
// the wire.
type exchange struct{ req, resp []byte }

// recorder is an http.RoundTripper for the router's replica clients that
// keeps a copy of the latest /v1/simulate exchange.
type recorder struct {
	tr   *http.Transport
	mu   sync.Mutex
	last exchange
}

func newRecorder(t testing.TB) *recorder {
	rec := &recorder{tr: http.DefaultTransport.(*http.Transport).Clone()}
	t.Cleanup(rec.tr.CloseIdleConnections)
	return rec
}

func (rec *recorder) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != "/v1/simulate" {
		return rec.tr.RoundTrip(r)
	}
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		r = r.Clone(r.Context())
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := rec.tr.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(out))
	rec.mu.Lock()
	rec.last = exchange{req: body, resp: out}
	rec.mu.Unlock()
	return resp, nil
}

// latest returns the most recent simulate exchange.
func (rec *recorder) latest() exchange {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.last
}

// postSimulate sends body to url's /v1/simulate as it is, stamping trace
// when it is not empty, and returns the answer's status and body.
func postSimulate(t testing.TB, url string, body []byte, trace string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	api.StampTrace(req.Header, trace, "")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestRouterRelaysReplicaBytes: the router forwards a simulate body naming
// a circuit ID as the caller sent it and answers with the replica's report
// body byte for byte; an inline netlist reaches the replica by ID; and a
// degraded serve is the stored report marked for the new request.
func TestRouterRelaysReplicaBytes(t *testing.T) {
	ctx := context.Background()
	reps := startReplicas(t, 1, service.Config{})
	rec := newRecorder(t)
	c := newTestCluster(t, reps, WithClientOptions(client.WithHTTPClient(&http.Client{Transport: rec})))
	rts := httptest.NewServer(c.Handler())
	t.Cleanup(rts.Close)

	up, err := client.New(rts.URL).UploadCircuit(ctx, api.UploadRequest{Netlist: halotis.C17BenchText(), Format: "bench", Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	stim := `"stimulus":{"1":{"edges":[{"t":2,"rising":true,"slew":0.2}]},"3":{"init":true,"edges":[{"t":4,"rising":false}]}}`
	plain := `{"circuit":"` + up.ID + `","t_end":30,` + stim + `}`
	cases := []struct {
		name, body, trace string
		cached            bool // the replica answers from its result cache
	}{
		{name: "plain", body: plain},
		{name: "waveforms and vcd", body: `{"circuit":"` + up.ID + `","t_end":30,"waveforms":["22","23"],"vcd":true,` + stim + `}`},
		{name: "result-cache hit", body: plain, cached: true},
		{name: "traced", body: `{"circuit":"` + up.ID + `","t_end":31,` + stim + `}`, trace: api.NewTraceID()},
		{name: "non-canonical whitespace", body: "{ \"t_end\" : 32,\n\t\"circuit\": \"" + up.ID + "\" ,\n  " + stim + " }\n"},
	}
	for _, tc := range cases {
		status, got := postSimulate(t, rts.URL, []byte(tc.body), tc.trace)
		if status != http.StatusOK {
			t.Fatalf("%s: router answered %d: %s", tc.name, status, got)
		}
		ex := rec.latest()
		if !bytes.Equal(ex.req, []byte(tc.body)) {
			t.Errorf("%s: forwarded body\n%s\nwant the caller's bytes\n%s", tc.name, ex.req, tc.body)
		}
		if !bytes.Equal(got, ex.resp) {
			t.Errorf("%s: router body differs from the replica's\nrouter:  %s\nreplica: %s", tc.name, got, ex.resp)
		}
		var rep api.Report
		if err := json.Unmarshal(got, &rep); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Cached != tc.cached || rep.TraceID != tc.trace {
			t.Errorf("%s: report cached=%v trace_id=%q, want %v %q", tc.name, rep.Cached, rep.TraceID, tc.cached, tc.trace)
		}
		if tc.name == "waveforms and vcd" && (len(rep.Waveforms) != 2 || rep.VCD == "") {
			t.Errorf("%s: report carries %d waveforms and %d VCD bytes", tc.name, len(rep.Waveforms), len(rep.VCD))
		}
	}

	// An inline netlist reaches the replica by ID, as it does today: the
	// router placed the circuit and can repair a replica that loses it.
	inline, err := json.Marshal(api.SimRequest{Netlist: halotis.C17BenchText(), Format: "bench", Request: api.Request{TEnd: 33}})
	if err != nil {
		t.Fatal(err)
	}
	if status, got := postSimulate(t, rts.URL, inline, ""); status != http.StatusOK {
		t.Fatalf("inline: router answered %d: %s", status, got)
	}
	ex := rec.latest()
	var fwd api.SimRequest
	if err := json.Unmarshal(ex.req, &fwd); err != nil {
		t.Fatal(err)
	}
	if fwd.Circuit != up.ID || fwd.Netlist != "" || fwd.TEnd != 33 {
		t.Errorf("inline request forwarded as circuit=%q netlist=%d bytes t_end=%g, want circuit %s by ID", fwd.Circuit, len(fwd.Netlist), fwd.TEnd, up.ID)
	}

	// With the replica gone, the plain request is served from the stored
	// bytes, marked cached, degraded and with the new request's trace ID.
	_, stored := postSimulate(t, rts.URL, []byte(plain), "")
	reps[0].kill()
	trace := api.NewTraceID()
	status, got := postSimulate(t, rts.URL, []byte(plain), trace)
	if status != http.StatusOK {
		t.Fatalf("degraded serve: router answered %d: %s", status, got)
	}
	var want, stale api.Report
	if err := json.Unmarshal(stored, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &stale); err != nil {
		t.Fatal(err)
	}
	want.Cached, want.Degraded, want.TraceID = true, true, trace
	if !reflect.DeepEqual(stale, want) {
		t.Errorf("degraded serve = %+v, want the stored report %+v", stale, want)
	}
}

// FuzzRouterSimulate posts each input both to a router and straight to its
// one replica (result cache off, so both run the kernel). The router must
// answer as the replica does: a 200 whose report equals the replica's in
// every deterministic field, or an error with the replica's status and a
// coded ErrorResponse.
func FuzzRouterSimulate(f *testing.F) {
	ctx := context.Background()
	// The event cap bounds each input's kernel time (an inline ring
	// oscillator runs to it); both paths run on the same replica, so it
	// caps them alike.
	reps := startReplicas(f, 1, service.Config{ResultCacheSize: -1, MaxEvents: 1 << 20})
	rts := httptest.NewServer(newTestCluster(f, reps, WithReplication(1)).Handler())
	f.Cleanup(rts.Close)
	up, err := client.New(rts.URL).UploadCircuit(ctx, api.UploadRequest{Netlist: halotis.C17BenchText(), Format: "bench", Name: "c17"})
	if err != nil {
		f.Fatal(err)
	}
	inline, err := json.Marshal(api.SimRequest{Netlist: halotis.C17BenchText(), Format: "bench", Request: api.Request{
		TEnd: 30, Stimulus: api.Stimulus{"2": {Edges: []api.Edge{{T: 1, Rising: true}}}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	id := `"circuit":"` + up.ID + `"`
	f.Add([]byte(`{` + id + `,"t_end":30,"stimulus":{"1":{"edges":[{"t":2,"rising":true,"slew":0.2}]}}}`))
	f.Add(inline)
	f.Add([]byte(`{` + id + `,"t_end":25,"waveforms":["22","23"],"vcd":true,"stimulus":{"3":{"init":true,"edges":[{"t":1,"rising":false}]}}}`))
	f.Add([]byte(`{` + id + `,"t_end":30,"bogus":1,"stimulus":{}}`))
	f.Add([]byte(`{` + id + `,"t_end":30,"stimulus":{}}{}`))
	f.Add([]byte(`{` + id + `,"t_end":30,"stimulus":{"nosuch":{"edges":[{"t":1,"rising":true}]}}}`))
	f.Add([]byte(`{` + id + `,"t_end":30,"stimulus":{"6":{"edges":[{"t":9,"rising":false},{"t":2,"rising":true}]}}}`))
	f.Add([]byte(`{` + id + `,"t_end":30,"max_events":1,"stimulus":{"1":{"edges":[{"t":2,"rising":true}]},"2":{"edges":[{"t":3,"rising":true}]}}}`))
	f.Add([]byte(`{"circuit":"` + strings.Repeat("0", 64) + `","t_end":30}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		rs, rb := postSimulate(t, rts.URL, body, "")
		ds, db := postSimulate(t, reps[0].ts.URL, body, "")
		if rs == http.StatusGatewayTimeout || ds == http.StatusGatewayTimeout {
			t.Skip("a deadline decides whether a run finishes, not what it computes")
		}
		if rs != ds {
			t.Fatalf("router answered %d, replica %d\nrouter:  %s\nreplica: %s", rs, ds, rb, db)
		}
		if rs == http.StatusOK {
			var got, want api.Report
			if err := json.Unmarshal(rb, &got); err != nil {
				t.Fatalf("router 200 body: %v\n%s", err, rb)
			}
			if err := json.Unmarshal(db, &want); err != nil {
				t.Fatalf("replica 200 body: %v\n%s", err, db)
			}
			type fields struct {
				Circuit, Model, VCD string
				TEnd                float64
				Stats               api.Stats
				Outputs             map[string]bool
				Waveforms           map[string]api.Waveform
				Activity            *api.ActivitySummary
				Power               *api.PowerSummary
			}
			of := func(r api.Report) fields {
				return fields{r.Circuit, r.Model, r.VCD, r.TEnd, r.Stats, r.Outputs, r.Waveforms, r.Activity, r.Power}
			}
			if !reflect.DeepEqual(of(got), of(want)) {
				t.Fatalf("router report differs from the replica's\nrouter:  %s\nreplica: %s", rb, db)
			}
			return
		}
		var got, want api.ErrorResponse
		if err := json.Unmarshal(rb, &got); err != nil || got.Error == "" || got.Code == "" {
			t.Fatalf("router %d body is not a coded ErrorResponse (%v): %s", rs, err, rb)
		}
		if err := json.Unmarshal(db, &want); err != nil {
			t.Fatalf("replica %d body: %v\n%s", ds, err, db)
		}
		if got.Code != want.Code {
			t.Fatalf("router answered %d %s, replica %d %s\nrouter:  %s\nreplica: %s", rs, got.Code, ds, want.Code, rb, db)
		}
	})
}
