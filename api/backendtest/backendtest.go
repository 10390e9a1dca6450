// Package backendtest is the conformance suite every halotis.Backend must
// pass: the same Request against the backend under test and against the
// in-process Local reference must yield bit-identical reports — stats,
// sampled outputs, waveform crossings, VCD — for the acceptance workloads
// (ISCAS85 c17 and the paper's 4x4 array multiplier) under both delay
// models, plus RunBatch order and batch-equals-single semantics.
//
// It grew out of the PR 4 Local↔Remote parity test, which the multi-node
// roadmap item predicted would double as the sharded backend's conformance
// suite; Local, Remote and the cluster backend all run it now.
//
//	func TestMyBackendConformance(t *testing.T) {
//	    backendtest.Conform(t, newMyBackend(t))
//	}
package backendtest

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"halotis"
)

// Circuits returns the acceptance workloads by name: the ISCAS85 c17
// benchmark and the paper's Fig. 5 4x4 array multiplier, built on the
// default library.
func Circuits(t testing.TB) map[string]*halotis.Circuit {
	t.Helper()
	lib := halotis.DefaultLibrary()
	c17, err := halotis.C17(lib)
	if err != nil {
		t.Fatal(err)
	}
	mult, err := halotis.Multiplier4x4(lib)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*halotis.Circuit{"c17": c17, "mult4x4": mult}
}

// StimulusFor drives a workload circuit: the multiplier gets the paper's
// sequence 1, anything else a staggered toggle on every input.
func StimulusFor(t testing.TB, name string, ckt *halotis.Circuit) halotis.Stimulus {
	t.Helper()
	if name == "mult4x4" {
		st, err := halotis.MultiplierSequence(halotis.PaperSequence1(), 4, 4, halotis.PaperPeriod, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := halotis.Stimulus{}
	for i, in := range ckt.Inputs {
		st[in.Name] = halotis.InputWave{Edges: []halotis.InputEdge{
			{Time: 2 + 0.7*float64(i), Rising: true, Slew: 0.2},
			{Time: 12 + 0.7*float64(i), Rising: false, Slew: 0.2},
		}}
	}
	return st
}

// closeEnough compares whole-circuit float sums to one part in 1e12.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-12*scale
}

// AssertReportsEqual compares every deterministic field of two reports.
// ElapsedNs, Cached and Replica are machine/state-dependent by design and
// excluded. Activity and power digests are whole-circuit float sums: a
// backend that re-parses the serialized netlist can enumerate nets in a
// different order than the original builder, so the sums may differ in
// the last ulp while every per-net value is bit-identical (the waveform
// comparison proves that); they compare within one part in 1e12.
func AssertReportsEqual(t testing.TB, label string, got, want *halotis.Report) {
	t.Helper()
	if got.Circuit != want.Circuit {
		t.Errorf("%s: circuit IDs differ: %s vs %s", label, got.Circuit, want.Circuit)
	}
	if got.Model != want.Model || got.TEnd != want.TEnd {
		t.Errorf("%s: model/t_end differ: %s/%g vs %s/%g", label, got.Model, got.TEnd, want.Model, want.TEnd)
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: stats differ:\n  got  %+v\n  want %+v", label, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Errorf("%s: outputs differ: %v vs %v", label, got.Outputs, want.Outputs)
	}
	if !reflect.DeepEqual(got.Waveforms, want.Waveforms) {
		t.Errorf("%s: waveform crossings differ", label)
	}
	if (got.Activity == nil) != (want.Activity == nil) {
		t.Errorf("%s: activity presence differs", label)
	} else if got.Activity != nil {
		if got.Activity.Transitions != want.Activity.Transitions {
			t.Errorf("%s: activity transitions differ: %d vs %d", label, got.Activity.Transitions, want.Activity.Transitions)
		}
		if !closeEnough(got.Activity.EnergyNorm, want.Activity.EnergyNorm) {
			t.Errorf("%s: activity energy differs: %v vs %v", label, got.Activity.EnergyNorm, want.Activity.EnergyNorm)
		}
	}
	if (got.Power == nil) != (want.Power == nil) {
		t.Errorf("%s: power presence differs", label)
	} else if got.Power != nil {
		pairs := [][2]float64{
			{got.Power.TotalEnergyFJ, want.Power.TotalEnergyFJ},
			{got.Power.GlitchEnergyFJ, want.Power.GlitchEnergyFJ},
			{got.Power.AvgPowerMW, want.Power.AvgPowerMW},
			{got.Power.GlitchFraction, want.Power.GlitchFraction},
		}
		for _, p := range pairs {
			if !closeEnough(p[0], p[1]) {
				t.Errorf("%s: power differs: %+v vs %+v", label, got.Power, want.Power)
				break
			}
		}
	}
	if got.VCD != want.VCD {
		t.Errorf("%s: VCD payloads differ", label)
	}
}

// Conform runs the conformance suite against be, using a fresh Local
// backend as the reference. Passing means code written against the
// Session API observes no behavioral difference behind be — the property
// that makes backends interchangeable.
func Conform(t *testing.T, be halotis.Backend) {
	ctx := context.Background()
	local := halotis.NewLocal()

	t.Run("RunParity", func(t *testing.T) {
		for name, ckt := range Circuits(t) {
			ls, err := local.Open(ctx, ckt)
			if err != nil {
				t.Fatalf("%s: open local reference: %v", name, err)
			}
			bs, err := be.Open(ctx, ckt)
			if err != nil {
				t.Fatalf("%s: open backend: %v", name, err)
			}
			if ls.Circuit().ID != bs.Circuit().ID {
				t.Errorf("%s: backends disagree on the content-hash ID: %s vs %s", name, ls.Circuit().ID, bs.Circuit().ID)
			}

			outputs := ls.Circuit().Outputs
			st := halotis.WireStimulus(StimulusFor(t, name, ckt))
			for _, model := range []string{"ddm", "cdm"} {
				req := halotis.Request{
					Model:     model,
					TEnd:      30,
					Stimulus:  st,
					Waveforms: outputs,
					Activity:  true,
					Power:     true,
					VCD:       true,
				}
				want, err := ls.Run(ctx, req)
				if err != nil {
					t.Fatalf("%s/%s: local reference run: %v", name, model, err)
				}
				got, err := bs.Run(ctx, req)
				if err != nil {
					t.Fatalf("%s/%s: backend run: %v", name, model, err)
				}
				if want.Stats.EventsProcessed == 0 {
					t.Fatalf("%s/%s: empty run, parity is vacuous", name, model)
				}
				AssertReportsEqual(t, name+"/"+model, got, want)
			}
			ls.Close()
			bs.Close()
		}
	})

	t.Run("BatchParity", func(t *testing.T) {
		ckt := Circuits(t)["c17"]
		reqs := BatchRequests(t, ckt)

		ls, err := local.Open(ctx, ckt)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := be.Open(ctx, ckt)
		if err != nil {
			t.Fatal(err)
		}
		defer ls.Close()
		defer bs.Close()

		batch, err := bs.RunBatch(ctx, reqs)
		if err != nil {
			t.Fatalf("backend batch: %v", err)
		}
		if len(batch) != len(reqs) {
			t.Fatalf("batch returned %d reports, want %d", len(batch), len(reqs))
		}
		for i := range reqs {
			want, err := ls.Run(ctx, reqs[i])
			if err != nil {
				t.Fatal(err)
			}
			AssertReportsEqual(t, "batch vs local single", batch[i], want)
		}
	})

	t.Run("RunAfterClose", func(t *testing.T) {
		ckt := Circuits(t)["c17"]
		bs, err := be.Open(ctx, ckt)
		if err != nil {
			t.Fatal(err)
		}
		if err := bs.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		req := halotis.Request{TEnd: 30, Stimulus: halotis.WireStimulus(StimulusFor(t, "c17", ckt))}
		if _, err := bs.Run(ctx, req); !errors.Is(err, halotis.ErrCircuitNotFound) {
			t.Errorf("run after close: err = %v, want ErrCircuitNotFound", err)
		}
		if _, err := bs.RunBatch(ctx, []halotis.Request{req}); !errors.Is(err, halotis.ErrCircuitNotFound) {
			t.Errorf("batch after close: err = %v, want ErrCircuitNotFound", err)
		}
	})
}

// BatchRequests builds the batch-parity workload: both delay models times
// three time-shifted variants of the circuit's standard stimulus, so
// order mistakes in a fan-out are caught by content, not just count.
func BatchRequests(t testing.TB, ckt *halotis.Circuit) []halotis.Request {
	t.Helper()
	base := StimulusFor(t, "", ckt)
	var reqs []halotis.Request
	for _, model := range []string{"ddm", "cdm"} {
		for shift := 0; shift < 3; shift++ {
			st := halotis.Stimulus{}
			for name, w := range base {
				edges := make([]halotis.InputEdge, len(w.Edges))
				copy(edges, w.Edges)
				for i := range edges {
					edges[i].Time += 0.3 * float64(shift)
				}
				st[name] = halotis.InputWave{Init: w.Init, Edges: edges}
			}
			reqs = append(reqs, halotis.Request{
				Model: model, TEnd: 40, Stimulus: halotis.WireStimulus(st), Activity: true,
			})
		}
	}
	return reqs
}
