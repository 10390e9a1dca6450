package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"halotis/client"
	"halotis/internal/netfmt"
	"halotis/internal/service"
)

// BenchmarkServiceSimulateC17Miss and BenchmarkServiceSimulateC17Hit time
// one simulate-by-ID of c17 through the replica's handler, in process and
// without a socket: decode, admission, the result cache or a kernel run,
// and the report encode. Miss runs with the result cache off, so every
// request runs the kernel; Hit answers every request after the first from
// the cache.
func BenchmarkServiceSimulateC17Miss(b *testing.B) { benchSimulateC17(b, -1) }
func BenchmarkServiceSimulateC17Hit(b *testing.B)  { benchSimulateC17(b, 0) }

func benchSimulateC17(b *testing.B, resultCacheSize int) {
	s := service.New(service.Config{ResultCacheSize: resultCacheSize})
	defer s.Close()
	h := s.Handler()
	// serve encodes v once and returns a call that posts it to path.
	serve := func(path string, v any) func() *httptest.ResponseRecorder {
		body, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		return func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("POST %s = %d: %s", path, rec.Code, rec.Body)
			}
			return rec
		}
	}
	var up client.UploadResponse
	if err := json.Unmarshal(serve("/v1/circuits", client.UploadRequest{Netlist: netfmt.C17Bench(), Format: "bench"})().Body.Bytes(), &up); err != nil {
		b.Fatal(err)
	}
	simulate := serve("/v1/simulate", client.SimRequest{Circuit: up.ID, Request: client.Request{TEnd: 30, Stimulus: c17WireStimulus()}})
	b.ReportAllocs()
	for b.Loop() {
		simulate()
	}
}
