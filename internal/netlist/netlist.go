// Package netlist represents gate-level combinational circuits: nets, gates
// and pins, with the per-instance input thresholds and capacitive loading
// the HALOTIS timing engine needs. It mirrors the paper's Fig. 2 data
// structures (Netlist — Line — GateInput).
package netlist

import (
	"fmt"
	"sync/atomic"

	"halotis/internal/cellib"
)

// Net is one signal line. It has at most one driver (a gate output) and any
// number of receiving gate input pins. A net without driver is a primary
// input.
type Net struct {
	// ID is the net's dense index within its circuit.
	ID int
	// Name is the unique net name.
	Name string
	// Driver is the gate whose output drives the net; nil for primary
	// inputs.
	Driver *Gate
	// Fanout lists the gate input pins connected to this net.
	Fanout []*Pin
	// WireCap is additional interconnect capacitance in pF.
	WireCap float64
	// IsOutput marks the net as a primary (observed) output.
	IsOutput bool
}

// IsPrimaryInput reports whether the net is driven from outside the circuit.
func (n *Net) IsPrimaryInput() bool { return n.Driver == nil }

// Load returns the total capacitive load on the net in pF: every fanout
// pin's input capacitance plus the driver's intrinsic output capacitance
// plus wire capacitance. This is the CL of eq. 2.
func (n *Net) Load() float64 {
	cl := n.WireCap
	for _, p := range n.Fanout {
		cl += p.CIn
	}
	if n.Driver != nil {
		cl += n.Driver.Cell.COut
	}
	return cl
}

// Pin is one gate input instance: the connection of a net to one input of
// one gate, carrying the per-instance threshold voltage and capacitance.
type Pin struct {
	// Gate owns the pin.
	Gate *Gate
	// Index is the pin position within the gate (the "i" of eq. 2/3).
	Index int
	// Net is the signal the pin listens to.
	Net *Net
	// VT is this pin's input threshold voltage. A transition on Net
	// produces an event at this pin only if it crosses VT.
	VT float64
	// CIn is the pin input capacitance in pF.
	CIn float64
}

// String identifies the pin for diagnostics.
func (p *Pin) String() string {
	return fmt.Sprintf("%s.%s[%d]", p.Gate.Name, p.Gate.Cell.Kind, p.Index)
}

// Gate is one cell instance.
type Gate struct {
	// ID is the gate's dense index within its circuit.
	ID int
	// Name is the unique instance name.
	Name string
	// Cell is the library cell the gate instantiates.
	Cell *cellib.Cell
	// Inputs are the gate's input pins in cell pin order.
	Inputs []*Pin
	// Output is the net driven by the gate.
	Output *Net
	// Level is the gate's topological depth (0 = fed only by primary
	// inputs), filled in by Circuit finalization.
	Level int
}

// Eval computes the gate's output for the given input values (indexed like
// Inputs).
func (g *Gate) Eval(in []bool) bool { return g.Cell.Kind.Eval(in) }

// Circuit is a finalized combinational netlist.
type Circuit struct {
	// Name identifies the circuit.
	Name string
	// Lib is the cell library all gates instantiate from.
	Lib *cellib.Library
	// Nets, Gates are dense, ID-indexed.
	Nets  []*Net
	Gates []*Gate
	// Inputs and Outputs are the primary interface nets in declaration
	// order.
	Inputs  []*Net
	Outputs []*Net

	netByName  map[string]*Net
	gateByName map[string]*Gate
	levels     int

	aux atomic.Value // derived-structure cache, see Aux
}

// Aux returns the circuit's cached derived acceleration structure, building
// it with build on first use. Circuits are immutable once Build returns, so
// structures derived from them (the compiled IR of the circ package) can be
// memoized here and shared by every consumer of the circuit; their lifetime
// is tied to the circuit's own. The cache holds a single slot: all callers
// must agree on what is stored (circ.Compile owns it today). Concurrent
// first calls may build twice; one result wins, both are valid.
func (c *Circuit) Aux(build func() any) any {
	if v := c.aux.Load(); v != nil {
		return v
	}
	v := build()
	c.aux.Store(v)
	return v
}

// NetByName returns the named net, or nil.
func (c *Circuit) NetByName(name string) *Net { return c.netByName[name] }

// GateByName returns the named gate, or nil.
func (c *Circuit) GateByName(name string) *Gate { return c.gateByName[name] }

// Depth returns the number of topological levels (longest input-to-output
// gate path length).
func (c *Circuit) Depth() int { return c.levels }

// GatesByLevel returns the gates sorted by topological level (stable by ID
// within a level). The HALOTIS engine does not need levelization — it is
// purely event-driven — but the analog engine and zero-delay evaluation do.
func (c *Circuit) GatesByLevel() []*Gate {
	// Counting sort: next[l] is the next free slot of level l's range.
	next := make([]int, c.levels+1)
	for _, g := range c.Gates {
		next[g.Level+1]++
	}
	for l := 1; l < len(next); l++ {
		next[l] += next[l-1]
	}
	out := make([]*Gate, len(c.Gates))
	for _, g := range c.Gates {
		out[next[g.Level]] = g
		next[g.Level]++
	}
	return out
}

// EvalBool computes the settled boolean outputs for the given primary input
// assignment (a zero-delay reference evaluation used by tests to check that
// timing simulation settles to the correct logic values).
func (c *Circuit) EvalBool(inputs map[string]bool) (map[string]bool, error) {
	val := make([]bool, len(c.Nets))
	set := make([]bool, len(c.Nets))
	for _, in := range c.Inputs {
		v, ok := inputs[in.Name]
		if !ok {
			return nil, fmt.Errorf("netlist: missing value for input %q", in.Name)
		}
		val[in.ID] = v
		set[in.ID] = true
	}
	for _, g := range c.GatesByLevel() {
		args := make([]bool, len(g.Inputs))
		for i, p := range g.Inputs {
			if !set[p.Net.ID] {
				return nil, fmt.Errorf("netlist: gate %s input %d unset during evaluation", g.Name, i)
			}
			args[i] = val[p.Net.ID]
		}
		val[g.Output.ID] = g.Eval(args)
		set[g.Output.ID] = true
	}
	out := make(map[string]bool, len(c.Outputs))
	for _, o := range c.Outputs {
		out[o.Name] = val[o.ID]
	}
	return out, nil
}

// Stats summarizes the circuit structure.
type Stats struct {
	Nets, Gates, Inputs, Outputs, Depth int
	// ByKind counts gate instances per cell kind.
	ByKind map[cellib.Kind]int
	// TotalLoad is the sum of all net loads in pF.
	TotalLoad float64
}

// Stats computes structural statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{
		Nets: len(c.Nets), Gates: len(c.Gates),
		Inputs: len(c.Inputs), Outputs: len(c.Outputs),
		Depth:  c.levels,
		ByKind: make(map[cellib.Kind]int),
	}
	for _, g := range c.Gates {
		s.ByKind[g.Cell.Kind]++
	}
	for _, n := range c.Nets {
		s.TotalLoad += n.Load()
	}
	return s
}

// String renders a one-line structural summary.
func (s Stats) String() string {
	return fmt.Sprintf("%d gates, %d nets, %d inputs, %d outputs, depth %d",
		s.Gates, s.Nets, s.Inputs, s.Outputs, s.Depth)
}
