package stats

import (
	"strings"
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/sim"
)

func runChain(t *testing.T, m sim.Model) *sim.Result {
	t.Helper()
	lib := cellib.Default06()
	ckt, err := circuits.InverterChain(lib, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Stimulus{"in": sim.InputWave{Edges: []sim.InputEdge{
		{Time: 1, Rising: true, Slew: 0.15},
		{Time: 5, Rising: false, Slew: 0.15},
		{Time: 5.18, Rising: true, Slew: 0.15}, // glitch
	}}}
	res, err := sim.NewEngine(ckt, sim.Options{Model: m}).Run(st, 20)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPowerBasics(t *testing.T) {
	res := runChain(t, sim.DDM)
	p := Power(res, 20)
	if p.TotalEnergy <= 0 {
		t.Fatal("no energy recorded")
	}
	if p.AveragePowerMW() <= 0 {
		t.Error("zero average power")
	}
	if p.GlitchFraction() < 0 || p.GlitchFraction() > 1 {
		t.Errorf("glitch fraction %g out of range", p.GlitchFraction())
	}
	// Energy ranking is descending.
	for i := 1; i < len(p.PerNet); i++ {
		if p.PerNet[i].Energy > p.PerNet[i-1].Energy {
			t.Fatal("PerNet not sorted by energy")
		}
	}
	out := p.Format(3)
	if !strings.Contains(out, "total switching energy") {
		t.Errorf("format output wrong:\n%s", out)
	}
	if len(p.PerNet) > 3 && !strings.Contains(out, "more nets") {
		t.Error("truncation note missing")
	}
}

func TestPowerCDMExceedsDDM(t *testing.T) {
	ddm := Power(runChain(t, sim.DDM), 20)
	cdm := Power(runChain(t, sim.CDM), 20)
	if cdm.TotalEnergy <= ddm.TotalEnergy {
		t.Errorf("CDM energy %g should exceed DDM %g (glitch propagates)",
			cdm.TotalEnergy, ddm.TotalEnergy)
	}
}

func TestPowerZeroWindow(t *testing.T) {
	var p PowerReport
	if p.AveragePowerMW() != 0 || p.GlitchFraction() != 0 {
		t.Error("zero report should return zeros")
	}
}
