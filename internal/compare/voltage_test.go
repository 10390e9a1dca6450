package compare

import (
	"math"
	"testing"

	"halotis/internal/analog"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/sim"
	"halotis/internal/wave"
)

func TestVoltageRMSIdenticalIsSmall(t *testing.T) {
	lib := cellib.Default06()
	ckt, err := circuits.InverterChain(lib, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Stimulus{"in": sim.InputWave{Edges: []sim.InputEdge{
		{Time: 1, Rising: true, Slew: 0.15},
	}}}
	lr, err := sim.NewEngine(ckt, sim.Options{}).Run(st, 8)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := analog.Run(ckt, st, 8, analog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rms := VoltageRMS(lr.Waveform("out"), ar.Trace("out"), 0, 8, 500)
	// The PWL abstraction should stay within a fraction of the swing.
	if rms > 0.18*vdd {
		t.Errorf("voltage RMS %g V too large", rms)
	}
	norm := VoltageRMSOutputs(lr, ar, []string{"out"}, vdd, 0, 8, 500)
	if math.Abs(norm-rms/vdd) > 1e-12 {
		t.Errorf("normalized RMS %g != %g", norm, rms/vdd)
	}
}

func TestVoltageRMSOppositeRails(t *testing.T) {
	// A waveform pinned at VDD against a trace pinned at 0 differs by VDD
	// everywhere.
	lib := cellib.Default06()
	ckt, err := circuits.InverterChain(lib, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Input held high -> analog out ~0.
	ar, err := analog.Run(ckt, sim.Stimulus{"in": sim.InputWave{Init: true}}, 3, analog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wf := wave.NewWaveform(vdd, vdd) // logic waveform stuck at VDD
	rms := VoltageRMS(wf, ar.Trace("out"), 1, 3, 100)
	if rms < 0.9*vdd {
		t.Errorf("rail-opposite RMS %g, want ~%g", rms, vdd)
	}
}

func TestVoltageRMSDegenerate(t *testing.T) {
	wf := wave.NewWaveform(vdd, 0)
	if got := VoltageRMS(wf, nil, 0, -1, 10); got != 0 {
		t.Errorf("inverted window RMS = %g", got)
	}
	if got := VoltageRMSOutputs(nil, nil, nil, vdd, 0, 1, 10); got != 0 {
		t.Errorf("empty outputs RMS = %g", got)
	}
}
