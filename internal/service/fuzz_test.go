package service

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"halotis/api"
	"halotis/internal/netfmt"
)

// codecQuirks seed both request fuzz targets with what encoding/json
// accepts and a hand-written decoder easily gets wrong: case-folded and
// escaped keys, repeated members, null, invalid UTF-8, numbers that do
// not fit their field, floats at the format switches, escapes, and
// trailing brackets.
var codecQuirks = []string{
	`{"CIRCUIT":"x","T_END":5,"ſtimulus":{}}`,
	`{"circuit":"x","t\u005fend":5,"stimulus":{"a":{"EDGES":[{"T":1,"Rising":true}]}}}`,
	`{"circuit":"x","t_end":5,"stimulus":{"a":{}},"stimulus":{"b":{"init":true}}}`,
	`{"circuit":"x","t_end":5,"stimulus":{"a":{"edges":[{"t":1,"rising":true,"slew":0.5},{"t":2}],"edges":[{"t":3}]}}}`,
	`{"circuit":"x","t_end":5,"stimulus":{"a":null,"b":{"edges":null}},"model":null}`,
	"{\"circuit\":\"\xff\",\"t_end\":5,\"stimulus\":{\"\xc3\":{}}}",
	`{"circuit":"x","t_end":-0,"stimulus":{}}`,
	`{"circuit":"x","t_end":5,"max_events":-1,"stimulus":{}}`,
	`{"circuit":"x","t_end":5,"partitions":1.0,"stimulus":{}}`,
	`{"circuit":"x","t_end":9.999999999999999e-7,"min_pulse":1e21,"timeout_ms":1e-6,"stimulus":{}}`,
	`{"circuit":"<&>\u2028\u0001","t_end":5,"stimulus":{}}`,
	`{"circuit":"x","t_end":5,"stimulus":{}}}`,
	`{"circuit":"x","t_end":5,"stimulus":{}}]`,
	`{"circuit":"x","requests":[{"t_end":1,"stimulus":{"a":{}}}],"requests":[{"t_end":2}],"options":{"allow_partial":true},"options":{}}`,
	`{"circuit":"x","requests":[null,{"t_end":1}]}]`,
}

// matchesOracle requires the simulate codec, which decodes into got with
// error gotErr, to agree with decodeJSON plus Validate: the same accept or
// reject, and on accept a deeply equal value.
func matchesOracle[T interface{ Validate() error }](t *testing.T, data []byte, got T, gotErr error) {
	t.Helper()
	want := reflect.New(reflect.TypeFor[T]().Elem()).Interface().(T)
	wantErr := decodeJSON(bytes.NewReader(data), want)
	if wantErr == nil {
		wantErr = want.Validate()
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: codec err = %v, encoding/json err = %v", data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\ncodec         %#v\nencoding/json %#v", data, got, want)
	}
}

// FuzzDecodeSimRequest hardens the single-run decoder: whatever bytes
// arrive, decoding must not panic, it must accept and build exactly what
// encoding/json's strict decode plus Validate does, and every accepted
// request must satisfy the documented invariants (checkTarget,
// checkRequest).
func FuzzDecodeSimRequest(f *testing.F) {
	f.Add([]byte(`{"circuit":"abc","t_end":30,"stimulus":{"a":{"init":true,"edges":[{"t":5,"rising":true,"slew":0.2}]}}}`))
	f.Add([]byte(`{"netlist":"input a\noutput a\n","format":"net","t_end":1,"stimulus":{}}`))
	f.Add([]byte(`{"circuit":"x","t_end":1e308,"max_events":1,"min_pulse":0.001,"timeout_ms":50,"waveforms":["y"],"activity":true,"power":true,"vcd":true,"stimulus":{"a":{}}}`))
	f.Add([]byte(`{"circuit":"x","netlist":"both","t_end":5,"stimulus":{}}`))
	f.Add([]byte(`{"circuit":"x","t_end":-1,"stimulus":{}}`))
	f.Add([]byte(`{"circuit":"x","t_end":5,"stimulus":{"a":{"edges":[{"t":-3}]}}}`))
	f.Add([]byte(`{"circuit":"x","t_end":5,"unknown_field":1,"stimulus":{}}`))
	f.Add([]byte(`{"circuit":"x","t_end":1e999,"stimulus":{}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{}{}`))
	for _, q := range codecQuirks {
		f.Add([]byte(q))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSimRequest(bytes.NewReader(data))
		matchesOracle(t, data, req, err)
		if err != nil {
			return
		}
		// Accepted requests obey the invariants the server relies on.
		checkTarget(t, req.Circuit, req.Netlist)
		checkRequest(t, &req.Request)
	})
}

// FuzzDecodeBatchRequest covers the batch payload decoder: it agrees with
// encoding/json's strict decode plus Validate, an accepted batch names
// exactly one target, carries at least one request, and every request
// obeys the single-run invariants.
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add([]byte(`{"circuit":"abc","requests":[{"t_end":30,"stimulus":{"a":{"init":true,"edges":[{"t":5,"rising":true,"slew":0.2}]}}},{"t_end":10,"model":"cdm","stimulus":{}}]}`))
	f.Add([]byte(`{"netlist":"input a\noutput a\n","format":"net","requests":[{"t_end":1,"stimulus":{}}],"options":{"allow_partial":true}}`))
	f.Add([]byte(`{"circuit":"x","requests":[]}`))
	f.Add([]byte(`{"circuit":"x","netlist":"both","requests":[{"t_end":5,"stimulus":{}}]}`))
	f.Add([]byte(`{"circuit":"x","requests":[{"t_end":5,"stimulus":{}},{"t_end":-1,"stimulus":{}}]}`))
	f.Add([]byte(`{"circuit":"x","requests":[{"t_end":5,"stimulus":{"a":{"edges":[{"t":1e999}]}}}]}`))
	f.Add([]byte(`{"circuit":"x","requests":[{"t_end":5}],"options":{"bogus":1}}`))
	f.Add([]byte(`{"requests":[{"t_end":5,"stimulus":{}}]}`))
	for _, q := range codecQuirks {
		f.Add([]byte(q))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeBatchRequest(bytes.NewReader(data))
		matchesOracle(t, data, req, err)
		if err != nil {
			return
		}
		checkTarget(t, req.Circuit, req.Netlist)
		if len(req.Requests) == 0 {
			t.Fatal("accepted batch with no requests")
		}
		for i := range req.Requests {
			checkRequest(t, &req.Requests[i])
		}
	})
}

// checkTarget requires an accepted payload to name exactly one target.
func checkTarget(t *testing.T, circuit, netlist string) {
	t.Helper()
	if (circuit == "") == (netlist == "") {
		t.Fatalf("accepted request with circuit=%q netlist=%q", circuit, netlist)
	}
}

// checkRequest requires an accepted run request to obey the invariants the
// server relies on — in particular no NaN/Inf smuggled into times, slews
// or horizons (the same rejection the text parsers' parseFinite applies) —
// and to convert into a kernel-valid stimulus.
func checkRequest(t *testing.T, req *api.Request) {
	t.Helper()
	if !(req.TEnd > 0) || math.IsInf(req.TEnd, 0) {
		t.Fatalf("accepted non-positive or non-finite t_end %v", req.TEnd)
	}
	for _, v := range []float64{req.MinPulse, req.TimeoutMs} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("accepted bad option value %v", v)
		}
	}
	for name, w := range req.Stimulus {
		if name == "" {
			t.Fatal("accepted empty input name")
		}
		for _, e := range w.Edges {
			if math.IsNaN(e.T) || math.IsInf(e.T, 0) || e.T < 0 {
				t.Fatalf("accepted bad edge time %v", e.T)
			}
			if math.IsNaN(e.Slew) || math.IsInf(e.Slew, 0) || e.Slew < 0 {
				t.Fatalf("accepted bad slew %v", e.Slew)
			}
		}
	}
	st := req.Stimulus.ToSim()
	for name, w := range st {
		prev := math.Inf(-1)
		for _, e := range w.Edges {
			if e.Slew <= 0 {
				t.Fatalf("ToSim produced non-positive slew for %q", name)
			}
			if e.Time < prev {
				t.Fatalf("ToSim produced unsorted edges for %q", name)
			}
			prev = e.Time
		}
	}
}

// FuzzDecodeUploadRequest covers the circuit-upload payload decoder.
func FuzzDecodeUploadRequest(f *testing.F) {
	f.Add([]byte(`{"name":"c17","format":"bench","netlist":"INPUT(1)\nOUTPUT(1)\n"}`))
	f.Add([]byte(`{"netlist":"input a\noutput a\n"}`))
	f.Add([]byte(`{"format":"bogus","netlist":"x"}`))
	f.Add([]byte(`{"netlist":""}`))
	f.Add([]byte(`{"netlist":"x","extra":true}`))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeUploadRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if req.Netlist == "" {
			t.Fatal("accepted empty netlist")
		}
		if !api.ValidFormat(req.Format) {
			t.Fatalf("accepted unknown format %q", req.Format)
		}
		// Sniffing must never panic, whatever the text contains.
		if strings.TrimSpace(req.Format) == "" || req.Format == "auto" {
			_ = netfmt.SniffFormat(req.Netlist)
		}
	})
}
