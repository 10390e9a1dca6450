package wire_test

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"halotis/api"
)

// seedReports are report and batch bodies as the replica writes them.
var seedReports = []string{
	`{"circuit":"ab12","model":"ddm","t_end":30,"elapsed_ns":15321,"stats":{"events_queued":40,"events_processed":38,"events_filtered":2,"evaluations":61,"transitions":36,"degraded_transitions":3,"fully_degraded":1},"outputs":{"22":true,"23":false}}`,
	`{"circuit":"ab12","model":"cdm","t_end":1e-7,"elapsed_ns":1,"cached":true,"replica":"r1","degraded":true,"stats":{"events_queued":0,"events_processed":0,"events_filtered":0,"evaluations":0,"transitions":0,"degraded_transitions":0,"fully_degraded":0},"trace_id":"00000000deadbeef","profile":{"partitions":2,"workers":[{"partition":0,"events_processed":9,"stall_waits":1,"mailbox_sends":2,"mailbox_high_water":3},{"partition":1,"events_processed":0}]},"outputs":{"y":true},"waveforms":{"y":{"init":true,"crossings":[{"t":2.5,"rising":false}]},"z":{"crossings":[]}},"activity":{"transitions":4,"energy_norm":0.5},"power":{"total_energy_fj":12.5,"glitch_energy_fj":0,"avg_power_mw":1e21,"glitch_fraction":0.25},"vcd":"$date\n<x>& \n"}`,
	`{"circuit":"ab12","reports":[{"circuit":"ab12","model":"ddm","t_end":5,"elapsed_ns":2,"stats":{},"outputs":{"y":false}},{}],"errors":[null,{"error":"requests[1]: bad","code":"invalid_request","retry_after_ms":5,"replica":"r2","trace_id":"t"}]}`,
}

// FuzzDecodeReport holds the lenient decoders to json.Unmarshal: the same
// accept or reject, and on accept deeply equal Reports and BatchResponses.
func FuzzDecodeReport(f *testing.F) {
	for _, s := range append(seedReports, quirks...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs[2:] {
			agree(t, c, data)
		}
	})
}

// FuzzEncode holds every encoder to json.Marshal: the same bytes, or the
// same error. Each input is a document decoded by encoding/json into each
// wire type, plus a float and a string set into a few fields of it, so the
// floats JSON cannot carry and strings with any bytes reach the encoders.
func FuzzEncode(f *testing.F) {
	for _, s := range append(seedReports, quirks...) {
		f.Add([]byte(s), 0.1, "a")
	}
	for _, x := range []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20, 5e-324} {
		f.Add([]byte(seedReports[1]), x, " <&>\xff\x01")
	}
	f.Fuzz(func(t *testing.T, data []byte, x float64, s string) {
		var sim api.SimRequest
		if json.Unmarshal(data, &sim) == nil {
			sim.MinPulse = x
			sim.Netlist += s
			if sim.Stimulus != nil {
				sim.Stimulus[s] = api.InputWave{Edges: []api.Edge{{T: x, Slew: -x}}}
			}
			encodesAlike(t, codecs[0], &sim)
		}
		var batch api.BatchRequest
		if json.Unmarshal(data, &batch) == nil {
			batch.Format += s
			batch.Requests = append(batch.Requests, api.Request{TEnd: x, Waveforms: []string{s}})
			encodesAlike(t, codecs[1], &batch)
		}
		var rep api.Report
		if json.Unmarshal(data, &rep) == nil {
			rep.VCD += s
			rep.Power = &api.PowerSummary{AvgPowerMW: x}
			if rep.Outputs != nil {
				// Keys built from s, which share its bytes, for the key sort.
				for i := range 8 {
					rep.Outputs[s[:i%(len(s)+1)]+strconv.Itoa(i)] = i%2 == 0
				}
			}
			encodesAlike(t, codecs[2], &rep)
		}
		var resp api.BatchResponse
		if json.Unmarshal(data, &resp) == nil {
			resp.Circuit += s
			resp.Reports = append(resp.Reports, api.Report{TEnd: x})
			encodesAlike(t, codecs[3], &resp)
		}
	})
}
