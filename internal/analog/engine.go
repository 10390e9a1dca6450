package analog

import (
	"fmt"
	"math"
	"time"

	"halotis/internal/netlist"
	"halotis/internal/sim"
)

// Options configures a transient analysis.
type Options struct {
	// Dt is the integration step in ns. Default 0.001 (1 ps).
	Dt float64
	// SampleEvery records every n-th step into the traces. Default 5.
	SampleEvery int
	// Device overrides the macromodel parameters; zero value means
	// DefaultDevice.
	Device DeviceParams
}

func (o *Options) setDefaults() {
	if o.Dt <= 0 {
		o.Dt = 0.001
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 5
	}
	if o.Device == (DeviceParams{}) {
		o.Device = DefaultDevice()
	}
}

// Result carries the transient analysis outcome.
type Result struct {
	// Elapsed is the wall-clock integration time (Table 2's HSPICE row).
	Elapsed time.Duration
	// Steps is the number of RK4 steps taken.
	Steps int

	ckt    *netlist.Circuit
	traces []*Trace
}

// Trace returns the sampled waveform of the named net, or nil.
func (r *Result) Trace(net string) *Trace {
	n := r.ckt.NetByName(net)
	if n == nil {
		return nil
	}
	return r.traces[n.ID]
}

// Circuit returns the analyzed circuit.
func (r *Result) Circuit() *netlist.Circuit { return r.ckt }

// OutputLogic samples every primary output at time t with a half-swing
// threshold.
func (r *Result) OutputLogic(t float64) map[string]bool {
	out := make(map[string]bool, len(r.ckt.Outputs))
	for _, o := range r.ckt.Outputs {
		out[o.Name] = r.traces[o.ID].LogicAt(t, r.ckt.Lib.VDD/2)
	}
	return out
}

// pwlInput evaluates the stimulus drive of one primary input at time t.
type pwlInput struct {
	init  float64
	vdd   float64
	edges []sim.InputEdge
}

func (p *pwlInput) v(t float64) float64 {
	v := p.init
	for _, e := range p.edges {
		if t <= e.Time {
			break
		}
		target := 0.0
		if e.Rising {
			target = p.vdd
		}
		dv := p.vdd / e.Slew * (t - e.Time)
		if e.Rising {
			v += dv
			if v > target {
				v = target
			}
		} else {
			v -= dv
			if v < target {
				v = target
			}
		}
	}
	if v < 0 {
		return 0
	}
	if v > p.vdd {
		return p.vdd
	}
	return v
}

// maxSamples bounds the samples a run records across all its traces
// (16 bytes each, so 2 GiB): a horizon that would record more is refused
// before the run starts rather than left to exhaust memory, or the
// caller's patience, part way through.
const maxSamples = 1 << 27

// Run performs the transient analysis of the circuit under the stimulus
// from t=0 to tEnd. Every gate kind in the circuit must have a primitive
// complementary topology (INV/NAND/NOR/AOI/OAI); composite kinds are
// rejected — expand them into primitives first.
func Run(ckt *netlist.Circuit, st sim.Stimulus, tEnd float64, opt Options) (*Result, error) {
	opt.setDefaults()
	inputNames := make(map[string]bool, len(ckt.Inputs))
	for _, in := range ckt.Inputs {
		inputNames[in.Name] = true
	}
	if err := st.Validate(inputNames); err != nil {
		return nil, err
	}
	if math.IsNaN(tEnd) || math.IsInf(tEnd, 0) {
		return nil, sim.ErrNonFiniteHorizon
	}
	// A horizon at or before 0 takes no step: the result holds the initial
	// state alone, as the event kernels return no transitions for it.
	fsteps := max(math.Floor(tEnd/opt.Dt+0.5), 0)
	if fsteps >= math.MaxInt {
		return nil, fmt.Errorf("analog: horizon %g ns is more steps of %g ns than an int holds", tEnd, opt.Dt)
	}
	if samples := (fsteps/float64(opt.SampleEvery) + 2) * float64(len(ckt.Nets)); samples > maxSamples {
		return nil, fmt.Errorf("analog: horizon %g ns would record %.3g samples, more than the %d a run may hold", tEnd, samples, maxSamples)
	}
	steps := int(fsteps)

	vdd := ckt.Lib.VDD
	d := opt.Device

	// Build per-gate models.
	models := make([]*gateModel, len(ckt.Gates))
	for _, g := range ckt.Gates {
		pd, ok := g.Cell.Kind.PullDown()
		if !ok {
			return nil, fmt.Errorf("analog: cell %s of gate %q has no primitive CMOS topology", g.Cell.Kind, g.Name)
		}
		off := make([]float64, len(g.Inputs))
		for i, p := range g.Inputs {
			off[i] = vdd/2 - p.VT
		}
		models[g.ID] = &gateModel{
			pullDown: pd,
			pullUp:   pd.Dual(),
			imax:     d.IUnit * g.Cell.Drive,
			cl:       g.Output.Load(),
			vtOff:    off,
		}
	}

	// Input drive functions.
	drives := make([]*pwlInput, len(ckt.Nets))
	for _, in := range ckt.Inputs {
		w := st[in.Name]
		v0 := 0.0
		if w.Init {
			v0 = vdd
		}
		drives[in.ID] = &pwlInput{init: v0, vdd: vdd, edges: w.Edges}
	}

	// Initial condition: the settled boolean solution at the rails.
	vals := make([]bool, len(ckt.Nets))
	for _, in := range ckt.Inputs {
		vals[in.ID] = st[in.Name].Init
	}
	for _, g := range ckt.GatesByLevel() {
		args := make([]bool, len(g.Inputs))
		for i, p := range g.Inputs {
			args[i] = vals[p.Net.ID]
		}
		vals[g.Output.ID] = g.Eval(args)
	}
	v := make([]float64, len(ckt.Nets))
	for i, b := range vals {
		if b {
			v[i] = vdd
		}
	}

	// Gate evaluation order and scratch buffers.
	gates := ckt.GatesByLevel()
	inBufs := make([][]float64, len(ckt.Gates))
	for _, g := range ckt.Gates {
		inBufs[g.ID] = make([]float64, len(g.Inputs))
	}

	// hist stores node voltages at integer steps so gates can read their
	// inputs Lag earlier (the device transport delay). Index k holds the
	// state at time k*Dt; before t=0 the initial state applies.
	histLen := int(d.Lag/opt.Dt) + 3
	hist := newHistory(len(ckt.Nets), histLen, opt.Dt, v)

	// inputV returns the voltage a gate sees on net id at time t: driven
	// inputs are exact PWL functions; internal nets come from the lagged
	// history.
	inputV := func(id int, t float64) float64 {
		if dr := drives[id]; dr != nil {
			return dr.v(t)
		}
		return hist.at(id, t)
	}

	// deriv computes dV/dt for every gate output given node voltages at
	// time t; gate inputs are read at t-Lag.
	deriv := func(t float64, v []float64, dv []float64) {
		for i := range dv {
			dv[i] = 0
		}
		tLag := t - d.Lag
		for _, g := range gates {
			buf := inBufs[g.ID]
			for i, p := range g.Inputs {
				buf[i] = inputV(p.Net.ID, tLag)
			}
			dv[g.Output.ID] = models[g.ID].dVdt(d, vdd, buf, v[g.Output.ID])
		}
	}

	start := time.Now()
	n := len(ckt.Nets)
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)

	traces := make([]*Trace, n)
	sampleCount := steps/opt.SampleEvery + 2
	for i := range traces {
		traces[i] = newTrace(vdd, sampleCount)
	}
	record := func(t float64, v []float64) {
		for i := range traces {
			x := v[i]
			if dr := drives[i]; dr != nil {
				x = dr.v(t)
			}
			traces[i].append(t, x)
		}
	}
	record(0, v)

	h := opt.Dt
	for s := 0; s < steps; s++ {
		t := float64(s) * h
		deriv(t, v, k1)
		axpy(tmp, v, k1, h/2)
		deriv(t+h/2, tmp, k2)
		axpy(tmp, v, k2, h/2)
		deriv(t+h/2, tmp, k3)
		axpy(tmp, v, k3, h)
		deriv(t+h, tmp, k4)
		for i := range v {
			v[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
			if v[i] < 0 {
				v[i] = 0
			} else if v[i] > vdd {
				v[i] = vdd
			}
		}
		hist.push(s+1, v)
		if (s+1)%opt.SampleEvery == 0 || s == steps-1 {
			record(float64(s+1)*h, v)
		}
	}

	return &Result{
		Elapsed: time.Since(start),
		Steps:   steps,
		ckt:     ckt,
		traces:  traces,
	}, nil
}

// axpy computes dst = v + a*k element-wise.
func axpy(dst, v, k []float64, a float64) {
	for i := range dst {
		dst[i] = v[i] + a*k[i]
	}
}
