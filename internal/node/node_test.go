package node

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"halotis/api"
)

// TestShellUnderConcurrentTraffic runs the sampler at a 1ms tick while
// API requests, budget sheds and every introspection endpoint race it, so
// the race detector sees the shell's shared state — endpoint counters and
// thresholds, SLO totals, the flight ring, the role hooks — under load.
// Afterwards every request is accounted exactly once.
func TestShellUnderConcurrentTraffic(t *testing.T) {
	var ticks atomic.Uint64
	n := New(Role{
		Name:         "n1",
		Replica:      "n1",
		RootSpan:     "test.request",
		MetricPrefix: "test_",
		Sample:       func(s *Sampler) { s.Rate("ticks_per_second", ticks.Add(1)) },
		Status:       func(r *api.StatusResponse) { r.QueueDepth = 7 },
	}, Config{SeriesResolution: time.Millisecond})
	n.Handle("POST /v1/simulate", "simulate", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, r.URL.Path)
	})
	n.Handle("GET /metrics", "metrics", func(w http.ResponseWriter, r *http.Request) {
		n.WriteMetrics(w, func(m Metrics) { m.Gauge("role_gauge", 1, "A role-only family.") })
	})
	n.Start()
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()
	defer n.Close()

	const workers, perWorker = 4, 40
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", nil)
				if i%4 == 0 {
					req.Header.Set(api.BudgetHeader, "0")
				}
				for _, r := range []*http.Request{req, get(ts.URL + "/v1/status"), get(ts.URL + "/v1/series"), get(ts.URL + "/metrics")} {
					resp, err := http.DefaultClient.Do(r)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	if ticks.Load() < 2 {
		t.Errorf("sampler ticked %d times, want it running alongside the traffic", ticks.Load())
	}

	const total, shed = workers * perWorker, workers * perWorker / 4
	var fr api.FlightResponse
	getJSON(t, ts.URL+"/v1/flightrecorder?n=1000", &fr)
	sheds := 0
	for _, rec := range fr.Records {
		if rec.StatusCode == http.StatusGatewayTimeout {
			sheds++
			if !rec.Shed || !rec.Pinned || rec.Replica != "n1" {
				t.Errorf("shed record = %+v, want shed+pinned under the role's identity", rec)
			}
		}
	}
	if fr.Recorded != total || sheds != shed {
		t.Errorf("flight recorder filed %d requests (%d shed), want %d (%d shed)", fr.Recorded, sheds, total, shed)
	}
	var st api.StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.Node != "n1" || st.QueueDepth != 7 {
		t.Errorf("status node %q queue depth %d, want the role's name and hook", st.Node, st.QueueDepth)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf(`test_requests_total{endpoint="simulate"} %d`, total),
		fmt.Sprintf("test_deadline_shed_total %d", shed),
		"test_role_gauge 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func get(url string) *http.Request {
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	return req
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
