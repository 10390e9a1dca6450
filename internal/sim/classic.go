package sim

import (
	"fmt"
	"time"

	"halotis/internal/delay"
	"halotis/internal/eventq"
	"halotis/internal/netlist"
	"halotis/internal/wave"
)

// ClassicOptions configures the conventional inertial-delay baseline.
type ClassicOptions struct {
	// AssumedSlew is the input transition time fed to the delay macromodel
	// (classic simulators do not track slews). Default 0.5 ns.
	AssumedSlew float64
	// MaxEvents aborts oscillating runs. Default 50e6.
	MaxEvents uint64
}

func (o *ClassicOptions) setDefaults() {
	if o.AssumedSlew <= 0 {
		o.AssumedSlew = 0.5
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 50_000_000
	}
}

// classicEvent is a committed boolean change of one net.
type classicEvent struct {
	net *netlist.Net
	val bool
}

// ClassicResult is the outcome of a classic inertial-delay run.
type ClassicResult struct {
	// Stats counters (EventsQueued/Processed/Filtered as in Stats).
	Stats Stats
	// Elapsed is the kernel wall-clock time.
	Elapsed time.Duration

	ckt *netlist.Circuit
	wfs []wave.Waveform // by netlist net ID
}

// Waveform returns the reconstructed waveform of the named net, or nil.
// Classic simulation is purely boolean; edges are rendered as nominal-slew
// ramps for display and comparison.
func (r *ClassicResult) Waveform(net string) *wave.Waveform {
	n := r.ckt.NetByName(net)
	if n == nil {
		return nil
	}
	return &r.wfs[n.ID]
}

// OutputLogic samples every primary output at time t (half-swing threshold).
func (r *ClassicResult) OutputLogic(t float64) map[string]bool {
	out := make(map[string]bool, len(r.ckt.Outputs))
	for _, o := range r.ckt.Outputs {
		out[o.Name] = r.wfs[o.ID].LogicAt(t, r.ckt.Lib.VDD/2)
	}
	return out
}

// RunClassic simulates the circuit with the conventional inertial delay
// model the paper's Fig. 1c criticizes: one threshold for all receivers
// (implicit in the boolean abstraction) and pulse rejection at the *output*
// of each gate — an in-flight output change is cancelled when the gate's
// inputs revert before it fires, so every pulse narrower than the gate
// delay is filtered for all fanouts alike.
func RunClassic(ckt *netlist.Circuit, st Stimulus, tEnd float64, opt ClassicOptions) (*ClassicResult, error) {
	opt.setDefaults()
	inputNames := make(map[string]bool, len(ckt.Inputs))
	for _, in := range ckt.Inputs {
		inputNames[in.Name] = true
	}
	if err := st.Validate(inputNames); err != nil {
		return nil, err
	}

	//halotis:wallclock Elapsed measures the run for stats; it never feeds simulated time
	start := time.Now()
	vdd := ckt.Lib.VDD

	// Settled initial solution.
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

	wfs := wave.NewSlab(vdd, len(ckt.Nets), transitionChunk)
	load := make([]float64, len(ckt.Nets))
	for _, n := range ckt.Nets {
		v0 := 0.0
		if vals[n.ID] {
			v0 = vdd
		}
		wfs[n.ID].Reset(v0)
		load[n.ID] = n.Load()
	}

	// pending[g] is the in-flight output change of gate g (eventq.NoHandle,
	// or stale once it fired, when there is none) and pendingVal[g] the
	// value it will commit.
	pending := make([]eventq.Handle, len(ckt.Gates))
	pendingVal := make([]bool, len(ckt.Gates))
	q := eventq.NewArena[classicEvent]()
	var stats Stats

	// Schedule stimulus edges as boolean events at their ramp midpoints
	// (the half-swing crossing a single-threshold simulator would see).
	for _, name := range st.sortedNames() {
		w := st[name]
		net := ckt.NetByName(name)
		for _, e := range w.Edges {
			slew := e.Slew
			if slew <= 0 {
				slew = opt.AssumedSlew
			}
			q.Push(e.Time+slew/2, classicEvent{net: net, val: e.Rising})
		}
	}

	propagate := func(now float64, net *netlist.Net, val bool) {
		if vals[net.ID] == val {
			return // redundant change (e.g. repeated stimulus level)
		}
		vals[net.ID] = val
		slew := opt.AssumedSlew
		if d := net.Driver; d != nil {
			pp := d.Cell.Pins[0]
			if val {
				slew = pp.Rise.Slew(load[net.ID], opt.AssumedSlew)
			} else {
				slew = pp.Fall.Slew(load[net.ID], opt.AssumedSlew)
			}
		}
		wfs[net.ID].Add(now, slew, val)
		stats.Transitions++
		for _, pin := range net.Fanout {
			g := pin.Gate
			gvals := make([]bool, len(g.Inputs))
			for i, p := range g.Inputs {
				gvals[i] = vals[p.Net.ID]
			}
			stats.Evaluations++
			newVal := g.Eval(gvals)
			inFlight := q.Pending(pending[g.ID])
			projected := vals[g.Output.ID]
			if inFlight {
				projected = pendingVal[g.ID]
			}
			if newVal == projected {
				continue
			}
			if inFlight {
				// Inertial rejection: the inputs reverted before
				// the scheduled output change fired — the pulse
				// is narrower than the gate delay and is dropped
				// at the output, for every fanout alike.
				q.Remove(pending[g.ID])
				stats.EventsFiltered++
				pending[g.ID] = eventq.NoHandle
				continue
			}
			pp := g.Cell.Pins[pin.Index]
			ep := pp.Fall
			if newVal {
				ep = pp.Rise
			}
			res := delay.Conventional(ep, load[g.Output.ID], opt.AssumedSlew)
			pending[g.ID] = q.Push(now+res.Tp, classicEvent{net: g.Output, val: newVal})
			pendingVal[g.ID] = newVal
		}
	}

	for {
		if t, ok := q.PeekTime(); !ok || t > tEnd {
			break
		}
		h, t, ev, _ := q.Pop()
		stats.EventsProcessed++
		if stats.EventsProcessed > opt.MaxEvents {
			return nil, fmt.Errorf("sim: classic event limit exceeded at t=%g", t)
		}
		if g := ev.net.Driver; g != nil && pending[g.ID] == h {
			pending[g.ID] = eventq.NoHandle
		}
		propagate(t, ev.net, ev.val)
	}

	queued, _, removed := q.Stats()
	stats.EventsQueued = queued
	if removed != stats.EventsFiltered {
		return nil, fmt.Errorf("sim: classic filtered accounting mismatch: %d vs %d", stats.EventsFiltered, removed)
	}
	//halotis:wallclock Elapsed measures the run for stats; it never feeds simulated time
	return &ClassicResult{Stats: stats, Elapsed: time.Since(start), ckt: ckt, wfs: wfs}, nil
}
