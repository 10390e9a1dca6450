package charlib

import (
	"testing"

	"halotis/internal/analog"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/compare"
	"halotis/internal/sim"
)

var lib = cellib.Default06()

// fastCfg keeps test characterization cheap.
func fastCfg() Config {
	return Config{
		Dt:       0.001,
		WireCaps: []float64{0.01, 0.04},
		Slews:    []float64{0.04, 0.1},
	}
}

func TestEnablingAssignment(t *testing.T) {
	cases := []struct {
		kind cellib.Kind
		pin  int
	}{
		{cellib.INV, 0},
		{cellib.NAND2, 0}, {cellib.NAND2, 1},
		{cellib.NOR3, 2},
		{cellib.AOI21, 0}, {cellib.AOI21, 2},
		{cellib.OAI21, 1},
	}
	for _, c := range cases {
		side, outWhenLow, err := enablingAssignment(c.kind, c.pin)
		if err != nil {
			t.Errorf("%s pin %d: %v", c.kind, c.pin, err)
			continue
		}
		in := make([]bool, len(side))
		copy(in, side)
		in[c.pin] = false
		if got := c.kind.Eval(in); got != outWhenLow {
			t.Errorf("%s pin %d: outWhenLow=%v but Eval=%v", c.kind, c.pin, outWhenLow, got)
		}
		in[c.pin] = true
		if got := c.kind.Eval(in); got == outWhenLow {
			t.Errorf("%s pin %d: pin does not control output with side %v", c.kind, c.pin, side)
		}
	}
}

func TestCharacterizeRejectsComposite(t *testing.T) {
	if _, err := Characterize(lib, cellib.XOR2, fastCfg()); err == nil {
		t.Error("composite kind accepted")
	}
}

func TestCharacterizeINV(t *testing.T) {
	cf, err := Characterize(lib, cellib.INV, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.Pins) != 1 {
		t.Fatalf("pins = %d", len(cf.Pins))
	}
	for _, ef := range []EdgeFit{cf.Pins[0].Rise, cf.Pins[0].Fall} {
		p := ef.Params
		if p.D0 <= 0 || p.D0 > 0.5 {
			t.Errorf("D0 = %g implausible", p.D0)
		}
		if p.D1 < 0 {
			t.Errorf("D1 = %g negative", p.D1)
		}
		// Under the ramp-start delay convention the load dependence
		// lives mostly in the slew; the mid-swing (50%) delay
		// D + slew/2 must still grow with load.
		if p.D1+p.S1/2 <= 0 {
			t.Errorf("mid-swing load sensitivity %g should be positive", p.D1+p.S1/2)
		}
		if p.S0 <= 0 || p.S1 <= 0 {
			t.Errorf("slew coefficients %g/%g implausible", p.S0, p.S1)
		}
		if p.A <= 0 {
			t.Errorf("degradation A = %g should be positive", p.A)
		}
		if ef.DelayRMS > 0.05 {
			t.Errorf("delay fit RMS %g too large", ef.DelayRMS)
		}
		if ef.DegradationPoints < 4 {
			t.Errorf("only %d degradation points", ef.DegradationPoints)
		}
	}
	// The fitted cell must validate in a library.
	cell := cf.Cell(lib.Cell(cellib.INV))
	if err := cell.Validate(lib.VDD); err != nil {
		t.Errorf("fitted cell invalid: %v", err)
	}
	if cf.Runs == 0 {
		t.Error("no runs recorded")
	}
}

func TestCharacterizeNAND2PinDependence(t *testing.T) {
	cf, err := Characterize(lib, cellib.NAND2, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.Pins) != 2 {
		t.Fatalf("pins = %d", len(cf.Pins))
	}
	for pin, pf := range cf.Pins {
		for _, ef := range []EdgeFit{pf.Rise, pf.Fall} {
			if ef.Params.D0 < 0 || ef.Params.D0 > 0.6 {
				t.Errorf("pin %d D0 = %g implausible", pin, ef.Params.D0)
			}
		}
	}
}

// TestCharacterizedLibraryTracksAnalog is the round-trip accuracy check:
// build a library from INV characterization, simulate an inverter chain
// with HALOTIS-DDM using it, and require close waveform agreement with the
// analog engine — the paper's central accuracy claim, reproduced
// end-to-end.
func TestCharacterizedLibraryTracksAnalog(t *testing.T) {
	newLib, fits, err := BuildLibrary(lib, fastCfg(), cellib.INV)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 1 {
		t.Fatalf("fits = %d", len(fits))
	}
	ckt, err := circuits.InverterChain(newLib, 5)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Stimulus{"in": sim.InputWave{Edges: []sim.InputEdge{
		{Time: 1, Rising: true, Slew: 0.1},
		{Time: 4, Rising: false, Slew: 0.1},
	}}}
	lr, err := sim.NewEngine(ckt, sim.Options{Model: sim.DDM}).Run(st, 10)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := analog.Run(ckt, st, 10, analog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := compare.CompareOutputs(lr, ar, 10)
	if s.TotalLogic != s.TotalAnalog || s.TotalMatch != s.TotalLogic {
		t.Errorf("edge counts: logic=%d analog=%d matched=%d", s.TotalLogic, s.TotalAnalog, s.TotalMatch)
	}
	if s.RMSError > 0.15 {
		t.Errorf("RMS edge error %g ns too large for a characterized library", s.RMSError)
	}
	if !s.SettleAll {
		t.Error("settle disagreement")
	}
}

func TestBuildLibraryKeepsComposites(t *testing.T) {
	newLib, _, err := BuildLibrary(lib, fastCfg(), cellib.INV, cellib.XOR2)
	if err != nil {
		t.Fatal(err)
	}
	if newLib.Cell(cellib.XOR2) == nil {
		t.Error("composite cell missing from characterized library")
	}
	if newLib.Cell(cellib.INV) == nil {
		t.Error("characterized INV missing")
	}
	// Composite keeps template coefficients.
	if newLib.Cell(cellib.XOR2).Pins[0].Rise != lib.Cell(cellib.XOR2).Pins[0].Rise {
		t.Error("composite coefficients changed")
	}
}

func TestBuildLibraryUnknownKind(t *testing.T) {
	empty := cellib.NewLibrary("empty", 5)
	if _, _, err := BuildLibrary(empty, fastCfg(), cellib.INV); err == nil {
		t.Error("missing template accepted")
	}
}
