package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"halotis/api"
	"halotis/client"
	"halotis/internal/cellib"
	"halotis/internal/circ"
	"halotis/internal/circuits"
	"halotis/internal/netfmt"
	"halotis/internal/netlist"
	"halotis/internal/service"
	"halotis/internal/sim"
	"halotis/internal/wire"
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

// codecPayload is one simulate call's two bodies: the request a client
// sends and the report the replica answers.
type codecPayload struct {
	name    string
	request []byte
	report  []byte
}

// codecPayloads builds serve-fleet-shaped bodies for c17, the 8x8
// multiplier and the 1k-gate random DAG: every input driven over three
// vectors, and the report of that run with every primary output.
func codecPayloads(b *testing.B) []codecPayload {
	lib := cellib.Default06()
	c17, err := circuits.C17(lib)
	if err != nil {
		b.Fatal(err)
	}
	mult, err := circuits.Multiplier(lib, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	dag, err := circuits.FamilyByName("random-dag").Build(lib, 1000)
	if err != nil {
		b.Fatal(err)
	}
	var out []codecPayload
	for _, c := range []struct {
		name string
		ckt  *netlist.Circuit
	}{{"c17", c17}, {"mult8x8", mult}, {"dag1k", dag}} {
		ir := circ.Compile(c.ckt)
		req := api.Request{TEnd: 25, Stimulus: api.Stimulus{}}
		for i, in := range c.ckt.Inputs {
			w := api.InputWave{Init: i%2 == 0}
			for k := 1; k < 3; k++ {
				if (i+k)%3 != 0 {
					w.Edges = append(w.Edges, api.Edge{T: 10 * float64(k), Rising: (i+k)%2 == 1, Slew: 0.2})
				}
			}
			req.Stimulus[in.Name] = w
		}
		st, err := req.Prepare(ir)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.NewEngineFromIR(ir, req.Options()).RunContext(context.Background(), st, req.TEnd)
		if err != nil {
			b.Fatal(err)
		}
		rep := api.BuildReport(ir, ir.Hash, res, &req)
		reqBody, err := json.Marshal(api.SimRequest{Circuit: ir.Hash, Request: req})
		if err != nil {
			b.Fatal(err)
		}
		repBody, err := json.Marshal(rep)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, codecPayload{c.name, reqBody, repBody})
	}
	return out
}

// BenchmarkCodec times the simulate codec (internal/wire) against
// encoding/json on each crossing of one simulate call: the client's
// request encode, the replica's (and router's) request decode, the
// replica's report encode and the client's report decode. Sub-benchmarks
// are named circuit/crossing/codec; -benchmem shows the allocations the
// codec saves.
func BenchmarkCodec(b *testing.B) {
	for _, p := range codecPayloads(b) {
		var req api.SimRequest
		if err := json.Unmarshal(p.request, &req); err != nil {
			b.Fatal(err)
		}
		var rep api.Report
		if err := json.Unmarshal(p.report, &rep); err != nil {
			b.Fatal(err)
		}
		run := func(name string, f func() error) {
			b.Run(p.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(p.request) + len(p.report)))
				for b.Loop() {
					if err := f(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		var buf []byte
		run("request_encode/wire", func() (err error) { buf, err = wire.AppendSimRequest(buf[:0], &req); return err })
		run("request_encode/json", func() error { _, err := json.Marshal(&req); return err })
		run("request_decode/wire", func() error { _, err := service.ParseSimRequest(p.request); return err })
		run("request_decode/json", func() error { _, err := service.DecodeSimRequestJSON(p.request); return err })
		run("report_encode/wire", func() (err error) { buf, err = wire.AppendReport(buf[:0], &rep); return err })
		run("report_encode/json", func() error { _, err := json.Marshal(&rep); return err })
		run("report_decode/wire", func() error { var r api.Report; return wire.DecodeReport(p.report, &r) })
		run("report_decode/json", func() error { var r api.Report; return json.Unmarshal(p.report, &r) })
	}
}
