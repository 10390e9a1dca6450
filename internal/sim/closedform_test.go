package sim_test

import (
	"math"
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/delay"
	"halotis/internal/sim"
)

// TestPulseWidthClosedForm pins the kernel's single-inverter pulse
// transfer against the paper's closed form, delay.PulseWidthOut — an
// oracle that shares no code with the event queue or the Fig. 4 rules. A
// rising input pulse of width w (0.2 ns slews) drives a Default06
// inverter under DDM; its output pulse width is the gap between the
// output's two transitions.
//
// From the input slew up to 2 ns the kernel must equal the closed form.
// Below the slew the input ramp is itself truncated: with VT = VDD/2 its
// crossings are 2w − slew apart, so w = 0.16 ns gives the closed form's
// value at 0.12 ns, and w = 0.12 ns collapses to the MinPulse sliver.
// Those two points pin documented behaviour, not faithfulness; Maier,
// "Gain and Pain of a Reliable Delay Model", studies this transfer curve.
func TestPulseWidthClosedForm(t *testing.T) {
	const (
		start = 5.0
		slew  = 0.2
		tol   = 1e-9
	)
	lib := cellib.Default06()
	ckt, err := circuits.InverterChain(lib, 1)
	if err != nil {
		t.Fatal(err)
	}
	load := ckt.NetByName("out").Load()
	pin := lib.Cell(cellib.INV).Pins[0]
	closedForm := func(w float64) float64 {
		return delay.PulseWidthOut(pin.Fall, pin.Rise, lib.VDD, load, slew, w)
	}
	eng := sim.NewEngine(ckt, sim.Options{Model: sim.DDM})
	outWidth := func(w float64) float64 {
		t.Helper()
		res, err := eng.Run(sim.Stimulus{"in": {Edges: []sim.InputEdge{
			{Time: start, Rising: true, Slew: slew},
			{Time: start + w, Rising: false, Slew: slew},
		}}}, start+w+10)
		if err != nil {
			t.Fatal(err)
		}
		ts := res.Waveform("out").Transitions()
		if len(ts) != 2 {
			t.Fatalf("w = %g ns: output has %d transitions, want a 2-transition pulse", w, len(ts))
		}
		return ts[1].Start - ts[0].Start
	}

	worst := 0.0
	for k := 20; k <= 200; k++ {
		w := float64(k) / 100
		got, want := outWidth(w), closedForm(w)
		if d := math.Abs(got - want); d > tol {
			t.Errorf("w = %.2f ns: kernel width %.12g ns, closed form %.12g ns", w, got, want)
		} else {
			worst = max(worst, d)
		}
	}
	t.Logf("worst deviation in band: %.3g ns over 181 widths", worst)

	if got, want := outWidth(0.16), closedForm(2*0.16-slew); math.Abs(got-want) > tol {
		t.Errorf("w = 0.16 ns: kernel width %.12g ns, want the closed form at 0.12 ns, %.12g ns", got, want)
	}
	if got := outWidth(0.12); math.Abs(got-sim.DefaultMinPulse) > tol {
		t.Errorf("w = 0.12 ns: kernel width %.12g ns, want the %g ns MinPulse sliver", got, sim.DefaultMinPulse)
	}
}
