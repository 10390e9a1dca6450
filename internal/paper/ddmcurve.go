package paper

import (
	"fmt"
	"strings"

	"halotis/internal/analog"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netlist"
	"halotis/internal/sim"
)

// CurvePoint is one pulse-width observation of the degradation transfer
// curve: input pulse width versus output pulse width under each engine.
// A negative output width means the pulse was filtered.
type CurvePoint struct {
	// WIn is the input pulse width, ns.
	WIn float64
	// OutDDM, OutCDM, OutAnalog are output pulse widths at half swing,
	// ns; -1 means filtered.
	OutDDM, OutCDM, OutAnalog float64
}

// DDMCurveResult is the supplementary experiment validating eq. 1 directly:
// sweeping an input pulse through one inverter and recording the output
// pulse width. The paper's degradation region — pulses neither eliminated
// nor propagated normally — appears as the band where the output is
// narrower than the input.
type DDMCurveResult struct {
	Points []CurvePoint
	// FilterEdgeDDM and FilterEdgeAnalog are the narrowest input widths
	// that still produce an output pulse.
	FilterEdgeDDM, FilterEdgeAnalog float64
	// Text is the formatted report.
	Text string
}

// DDMCurve sweeps the pulse transfer characteristic of an inverter driving
// a realistic load.
func DDMCurve(lib *cellib.Library) (DDMCurveResult, error) {
	// One inverter driving two more (a realistic load), observing its
	// output net w1.
	ckt, err := circuits.InverterChain(lib, 3)
	if err != nil {
		return DDMCurveResult{}, err
	}
	vdd := lib.VDD
	const (
		t0   = 2.0
		slew = 0.12
		net  = "w1"
	)

	var r DDMCurveResult
	for w := 0.06; w <= 0.60; w += 0.02 {
		st := sim.Stimulus{"in": sim.InputWave{Edges: []sim.InputEdge{
			{Time: t0, Rising: true, Slew: slew},
			{Time: t0 + w, Rising: false, Slew: slew},
		}}}
		p := CurvePoint{WIn: w, OutDDM: -1, OutCDM: -1, OutAnalog: -1}

		ddm, err := runLogicShort(ckt, st, sim.DDM)
		if err != nil {
			return DDMCurveResult{}, err
		}
		if ps := ddm.Waveform(net).Pulses(vdd / 2); len(ps) == 1 {
			p.OutDDM = ps[0].Width()
		}
		cdm, err := runLogicShort(ckt, st, sim.CDM)
		if err != nil {
			return DDMCurveResult{}, err
		}
		if ps := cdm.Waveform(net).Pulses(vdd / 2); len(ps) == 1 {
			p.OutCDM = ps[0].Width()
		}
		ar, err := analog.Run(ckt, st, t0+w+4, analog.Options{Dt: 0.001})
		if err != nil {
			return DDMCurveResult{}, err
		}
		edges := ar.Trace(net).Edges(0.4*vdd, 0.6*vdd)
		if len(edges) == 2 {
			p.OutAnalog = edges[1].Time - edges[0].Time
		}
		r.Points = append(r.Points, p)
		if r.FilterEdgeDDM == 0 && p.OutDDM >= 0 {
			r.FilterEdgeDDM = w
		}
		if r.FilterEdgeAnalog == 0 && p.OutAnalog >= 0 {
			r.FilterEdgeAnalog = w
		}
	}

	var b strings.Builder
	b.WriteString(sectionHeader("DDM pulse transfer curve (eq. 1 validation)"))
	b.WriteString("input pulse through one inverter; output width at half swing (-: filtered)\n\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "Win(ns)", "analog", "DDM", "CDM")
	for _, p := range r.Points {
		b.WriteString(fmt.Sprintf("%-8.2f %10s %10s %10s\n",
			p.WIn, fmtWidth(p.OutAnalog), fmtWidth(p.OutDDM), fmtWidth(p.OutCDM)))
	}
	fmt.Fprintf(&b, "\nfiltering edge: analog %.2f ns, DDM %.2f ns\n", r.FilterEdgeAnalog, r.FilterEdgeDDM)
	b.WriteString("between elimination and normal propagation lies the degradation band,\n")
	b.WriteString("where output pulses are narrower than inputs (paper section 2).\n")
	r.Text = b.String()
	return r, nil
}

func fmtWidth(w float64) string {
	if w < 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", w)
}

// runLogicShort is runLogic with a tighter horizon for the sweep.
func runLogicShort(ckt *netlist.Circuit, st sim.Stimulus, m sim.Model) (*sim.Result, error) {
	return sim.NewEngine(ckt, sim.Options{Model: m}).Run(st, 12)
}
