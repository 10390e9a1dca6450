package halotis_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"halotis"
)

func TestQuickstartFlow(t *testing.T) {
	lib := halotis.DefaultLibrary()
	ckt, err := halotis.InverterChain(lib, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := halotis.Stimulus{"in": halotis.InputWave{Edges: []halotis.InputEdge{
		{Time: 1, Rising: true, Slew: 0.2},
	}}}
	res, err := halotis.Simulate(ckt, st, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.OutputLogic(20, lib.VDD/2)["out"]; got {
		t.Error("3 inversions of 1 should be 0")
	}
	if res.Model != halotis.DDM {
		t.Error("default model should be DDM")
	}
}

func TestSimulateOptions(t *testing.T) {
	lib := halotis.DefaultLibrary()
	ckt, err := halotis.InverterChain(lib, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := halotis.Simulate(ckt, halotis.Stimulus{}, 5,
		halotis.WithModel(halotis.CDM), halotis.WithMaxEvents(100), halotis.WithMinPulse(1e-5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != halotis.CDM {
		t.Error("WithModel not applied")
	}
}

func TestMultiplierEndToEnd(t *testing.T) {
	lib := halotis.DefaultLibrary()
	ckt, err := halotis.Multiplier4x4(lib)
	if err != nil {
		t.Fatal(err)
	}
	st, err := halotis.MultiplierSequence(halotis.PaperSequence1(), 4, 4, halotis.PaperPeriod, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ddm, err := halotis.Simulate(ckt, st, 28, halotis.WithModel(halotis.DDM))
	if err != nil {
		t.Fatal(err)
	}
	cdm, err := halotis.Simulate(ckt, st, 28, halotis.WithModel(halotis.CDM))
	if err != nil {
		t.Fatal(err)
	}
	// Settled product of the last vector FxF = 225.
	out := ddm.OutputLogic(28, lib.VDD/2)
	p := 0
	for k := 0; k < 8; k++ {
		if out[fmt.Sprintf("s%d", k)] {
			p |= 1 << k
		}
	}
	if p != 225 {
		t.Errorf("settled product = %d, want 225", p)
	}
	// Table 1 shape: CDM processes more events and filters fewer.
	if cdm.Stats.EventsProcessed <= ddm.Stats.EventsProcessed {
		t.Errorf("CDM events %d should exceed DDM %d",
			cdm.Stats.EventsProcessed, ddm.Stats.EventsProcessed)
	}
	if ddm.Stats.EventsFiltered <= cdm.Stats.EventsFiltered {
		t.Errorf("DDM filtered %d should exceed CDM %d",
			ddm.Stats.EventsFiltered, cdm.Stats.EventsFiltered)
	}
	act := halotis.CompareActivity(ddm, cdm)
	if act.TransOverestPct() <= 0 {
		t.Errorf("CDM should overestimate activity, got %+v", act)
	}
}

func TestAnalogComparisonEndToEnd(t *testing.T) {
	lib := halotis.DefaultLibrary()
	ckt, err := halotis.InverterChain(lib, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := halotis.Stimulus{"in": halotis.InputWave{Edges: []halotis.InputEdge{
		{Time: 1, Rising: true, Slew: 0.2},
		{Time: 5, Rising: false, Slew: 0.2},
	}}}
	lr, err := halotis.Simulate(ckt, st, 12)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := halotis.SimulateAnalog(ckt, st, 12, halotis.AnalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := halotis.CompareWithAnalog(lr, ar, 12)
	if !s.SettleAll {
		t.Error("settle disagreement")
	}
	if s.TotalMatch == 0 {
		t.Error("no matched edges")
	}
}

func TestClassicBaseline(t *testing.T) {
	lib := halotis.DefaultLibrary()
	ckt, err := halotis.Figure1(lib)
	if err != nil {
		t.Fatal(err)
	}
	st, err := halotis.PulseTrain("in", 2, 0.16, 2, 1, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := halotis.SimulateClassic(ckt, st, 20)
	if err != nil {
		t.Fatal(err)
	}
	// The classic engine treats both fanouts identically.
	a := res.Waveform("out1").Len()
	b := res.Waveform("out2").Len()
	if (a == 0) != (b == 0) {
		t.Errorf("classic engine differentiated fanouts: %d vs %d", a, b)
	}
}

func TestGeneratorsBuild(t *testing.T) {
	lib := halotis.DefaultLibrary()
	if _, err := halotis.RippleCarryAdder(lib, 8); err != nil {
		t.Error(err)
	}
	if _, err := halotis.ParityTree(lib, 6); err != nil {
		t.Error(err)
	}
	if _, err := halotis.C17(lib); err != nil {
		t.Error(err)
	}
	if _, err := halotis.Multiplier(lib, 3, 5); err != nil {
		t.Error(err)
	}
}

func TestBuilderFacade(t *testing.T) {
	lib := halotis.DefaultLibrary()
	b := halotis.NewBuilder("mine", lib)
	b.Input("a")
	b.AddGate("g", halotis.INV, "y", "a")
	b.Output("y")
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ckt.Name != "mine" {
		t.Errorf("name = %q", ckt.Name)
	}
}

// TestNonFiniteInputsRejected: every kernel — the engine at one and at two
// partitions, the classic baseline and the analog reference — refuses a
// NaN or infinite horizon, edge time or slew with an error, instead of
// running forever, panicking or accepting it. Each call runs under a 10 s
// guard, so a hang fails the test instead of stalling the suite.
func TestNonFiniteInputsRejected(t *testing.T) {
	ckt, err := halotis.C17(halotis.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	// stim drives every input with one clean edge, except the first, whose
	// edge has the given time and slew.
	stim := func(at, slew float64) halotis.Stimulus {
		st := halotis.Stimulus{}
		for i, in := range ckt.Inputs {
			st[in.Name] = halotis.InputWave{Edges: []halotis.InputEdge{{Time: 1 + float64(i), Rising: true, Slew: 0.2}}}
		}
		st[ckt.Inputs[0].Name] = halotis.InputWave{Edges: []halotis.InputEdge{{Time: at, Rising: true, Slew: slew}}}
		return st
	}
	nan, inf := math.NaN(), math.Inf(1)
	inputs := []struct {
		name string
		st   halotis.Stimulus
		tEnd float64
	}{
		{"NaN horizon", stim(1, 0.2), nan},
		{"+Inf horizon", stim(1, 0.2), inf},
		{"NaN edge time", stim(nan, 0.2), 30},
		{"+Inf edge time", stim(inf, 0.2), 30},
		{"NaN slew", stim(1, nan), 30},
		{"+Inf slew", stim(1, inf), 30},
	}
	kernels := []struct {
		name string
		run  func(st halotis.Stimulus, tEnd float64) error
	}{
		{"engine P=1", func(st halotis.Stimulus, tEnd float64) error {
			_, err := halotis.Simulate(ckt, st, tEnd, halotis.WithPartitions(1))
			return err
		}},
		{"engine P=2", func(st halotis.Stimulus, tEnd float64) error {
			_, err := halotis.Simulate(ckt, st, tEnd, halotis.WithPartitions(2))
			return err
		}},
		{"classic", func(st halotis.Stimulus, tEnd float64) error {
			_, err := halotis.SimulateClassic(ckt, st, tEnd)
			return err
		}},
		{"analog", func(st halotis.Stimulus, tEnd float64) error {
			_, err := halotis.SimulateAnalog(ckt, st, tEnd, halotis.AnalogOptions{})
			return err
		}},
	}
	for _, k := range kernels {
		for _, in := range inputs {
			t.Run(k.name+"/"+in.name, func(t *testing.T) {
				type outcome struct {
					err   error
					panic any
				}
				done := make(chan outcome, 1)
				go func() {
					defer func() {
						if p := recover(); p != nil {
							done <- outcome{panic: p}
						}
					}()
					done <- outcome{err: k.run(in.st, in.tEnd)}
				}()
				select {
				case got := <-done:
					switch {
					case got.panic != nil:
						t.Fatalf("panicked: %v", got.panic)
					case got.err == nil:
						t.Fatal("accepted the input, want an error")
					}
				case <-time.After(10 * time.Second):
					t.Fatal("no answer within 10 s")
				}
			})
		}
	}
}

// TestAnalogHorizonBounds: a horizon at or before 0 is an empty run on the
// analog engine, accepted as the event kernels accept it; a horizon whose
// step count does not fit an int, or that would record more samples than
// a run may hold, is an error there, returned at once rather than a panic
// or a run that cannot finish.
func TestAnalogHorizonBounds(t *testing.T) {
	ckt, err := halotis.C17(halotis.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	st := halotis.Stimulus{ckt.Inputs[0].Name: {Edges: []halotis.InputEdge{{Time: 1, Rising: true, Slew: 0.2}}}}
	call := func(f func() error) (panicked any, err error) {
		defer func() { panicked = recover() }()
		return nil, f()
	}
	for _, tEnd := range []float64{-1, 0, -1e300} {
		var ar *halotis.AnalogResult
		p, err := call(func() (err error) {
			ar, err = halotis.SimulateAnalog(ckt, st, tEnd, halotis.AnalogOptions{})
			return err
		})
		if p != nil || err != nil {
			t.Fatalf("SimulateAnalog(tEnd=%g) = %v, panic %v; want an empty result", tEnd, err, p)
		}
		for _, o := range ckt.Outputs {
			if n := ar.Trace(o.Name).TransitionCount(); n != 0 {
				t.Errorf("SimulateAnalog(tEnd=%g): output %s has %d transitions, want 0", tEnd, o.Name, n)
			}
		}
		// The event kernels accept the same horizon.
		if _, err := halotis.Simulate(ckt, st, tEnd); err != nil {
			t.Errorf("Simulate(tEnd=%g) = %v, want no error", tEnd, err)
		}
		if _, err := halotis.SimulateClassic(ckt, st, tEnd); err != nil {
			t.Errorf("SimulateClassic(tEnd=%g) = %v, want no error", tEnd, err)
		}
	}
	for _, c := range []struct {
		tEnd float64
		opt  halotis.AnalogOptions
	}{
		{1e300, halotis.AnalogOptions{}},
		{1e20, halotis.AnalogOptions{}},
		{1e9, halotis.AnalogOptions{}},
		{1e5, halotis.AnalogOptions{}},
		{1e20, halotis.AnalogOptions{SampleEvery: 1 << 62}},
	} {
		start := time.Now()
		p, err := call(func() error {
			_, err := halotis.SimulateAnalog(ckt, st, c.tEnd, c.opt)
			return err
		})
		if p != nil || err == nil {
			t.Errorf("SimulateAnalog(tEnd=%g, %+v) = %v, panic %v; want an error", c.tEnd, c.opt, err, p)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("SimulateAnalog(tEnd=%g, %+v) took %v to refuse", c.tEnd, c.opt, d)
		}
	}
}
