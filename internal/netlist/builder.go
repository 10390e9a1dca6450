package netlist

import (
	"fmt"

	"halotis/internal/cellib"
)

// Builder assembles a Circuit incrementally and validates it on Build.
// Nets are created on first reference, so gates may be added in any order.
//
// Net, Gate and Pin records and every gate's Inputs list are carved from
// chunked slabs rather than allocated one by one, so a 100k-gate circuit
// costs a few hundred allocations for its records instead of half a
// million. Fanout lists are assembled once, by Build.
type Builder struct {
	name string
	lib  *cellib.Library

	nets    []*Net
	gates   []*Gate
	inputs  []*Net
	outputs []*Net

	// netState is indexed by net ID: the per-net flags and counts Build
	// needs, kept off the exported Net record.
	netState []netState

	netByName  map[string]*Net
	gateByName map[string]*Gate

	netSlab  slab[Net]
	gateSlab slab[Gate]
	pinSlab  slab[Pin]
	listSlab slab[*Pin]

	errs []error
}

type netState struct {
	fanout int32 // receiving pins so far
	input  bool  // declared a primary input
}

// slab hands out records from chunks that never move, so pointers into it
// stay valid as it grows. Chunks double from 16 to 4096 records: a c17
// upload stays small and a large circuit allocates once per 4096 records.
type slab[T any] struct {
	free []T
	size int
}

// take returns n fresh zeroed records, contiguous, with capacity clamped
// so that an append to the result never writes into a neighbour's records.
func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.size = min(max(2*s.size, 16), 4096)
		s.free = make([]T, max(s.size, n))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// NewBuilder starts a circuit with the given name over the given library.
func NewBuilder(name string, lib *cellib.Library) *Builder {
	return &Builder{
		name:       name,
		lib:        lib,
		netByName:  make(map[string]*Net),
		gateByName: make(map[string]*Gate),
	}
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("netlist: "+format, args...))
}

// Net returns the named net, creating it if needed.
func (b *Builder) Net(name string) *Net {
	if n, ok := b.netByName[name]; ok {
		return n
	}
	if name == "" {
		b.errf("empty net name")
	}
	n := &b.netSlab.take(1)[0]
	n.ID, n.Name = len(b.nets), name
	b.nets = append(b.nets, n)
	b.netState = append(b.netState, netState{})
	b.netByName[name] = n
	return n
}

// Input declares a primary input net and returns it.
func (b *Builder) Input(name string) *Net {
	n := b.Net(name)
	if st := &b.netState[n.ID]; !st.input {
		st.input = true
		b.inputs = append(b.inputs, n)
	}
	return n
}

// Output marks a net as a primary output.
func (b *Builder) Output(name string) *Net {
	n := b.Net(name)
	if !n.IsOutput {
		n.IsOutput = true
		b.outputs = append(b.outputs, n)
	}
	return n
}

// SetWireCap adds interconnect capacitance (pF) to a net.
func (b *Builder) SetWireCap(net string, cap float64) {
	if cap < 0 {
		b.errf("negative wire capacitance %g on %q", cap, net)
		return
	}
	b.Net(net).WireCap = cap
}

// AddGate instantiates a cell. The output net and each input net are
// created on demand. It returns the new gate (possibly with recorded
// errors deferred to Build).
func (b *Builder) AddGate(name string, kind cellib.Kind, output string, inputs ...string) *Gate {
	cell := b.lib.Cell(kind)
	if cell == nil {
		b.errf("gate %q: library %q has no cell %s", name, b.lib.Name, kind)
		return nil
	}
	if len(inputs) != kind.NumInputs() {
		b.errf("gate %q: %s takes %d inputs, got %d", name, kind, kind.NumInputs(), len(inputs))
		return nil
	}
	if _, dup := b.gateByName[name]; dup {
		b.errf("duplicate gate name %q", name)
		return nil
	}
	out := b.Net(output)
	if out.Driver != nil {
		b.errf("net %q driven by both %q and %q", output, out.Driver.Name, name)
		return nil
	}
	g := &b.gateSlab.take(1)[0]
	g.ID, g.Name, g.Cell, g.Output = len(b.gates), name, cell, out
	out.Driver = g
	pins := b.pinSlab.take(len(inputs))
	g.Inputs = b.listSlab.take(len(inputs))
	for i, in := range inputs {
		net := b.Net(in)
		pins[i] = Pin{Gate: g, Index: i, Net: net, VT: cell.Pins[i].VT, CIn: cell.Pins[i].CIn}
		g.Inputs[i] = &pins[i]
		b.netState[net.ID].fanout++
	}
	b.gates = append(b.gates, g)
	b.gateByName[name] = g
	return g
}

// SetPinVT overrides the input threshold of one gate pin, in volts. The
// paper's Fig. 1 scenario needs per-instance thresholds.
func (b *Builder) SetPinVT(gate string, pin int, vt float64) {
	g, ok := b.gateByName[gate]
	if !ok {
		b.errf("SetPinVT: unknown gate %q", gate)
		return
	}
	if pin < 0 || pin >= len(g.Inputs) {
		b.errf("SetPinVT: gate %q has no pin %d", gate, pin)
		return
	}
	if vt <= 0 || vt >= b.lib.VDD {
		b.errf("SetPinVT: VT %g outside (0, %g)", vt, b.lib.VDD)
		return
	}
	g.Inputs[pin].VT = vt
}

// Build validates the circuit and returns it: every net must be driven or a
// declared primary input, primary inputs must not be driven, the gate graph
// must be acyclic (combinational), and every gate output should go
// somewhere (fanout or primary output) — dangling outputs are an error to
// catch netlist typos.
func (b *Builder) Build() (*Circuit, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	b.linkFanout()
	for _, n := range b.nets {
		input := b.netState[n.ID].input
		switch {
		case n.Driver == nil && !input:
			return nil, fmt.Errorf("netlist: net %q has no driver and is not a primary input", n.Name)
		case n.Driver != nil && input:
			return nil, fmt.Errorf("netlist: primary input %q is driven by gate %q", n.Name, n.Driver.Name)
		case len(n.Fanout) == 0 && !n.IsOutput:
			return nil, fmt.Errorf("netlist: net %q is dangling (no fanout, not an output)", n.Name)
		}
	}
	levels, err := b.levelize()
	if err != nil {
		return nil, err
	}
	return &Circuit{
		Name:       b.name,
		Lib:        b.lib,
		Nets:       b.nets,
		Gates:      b.gates,
		Inputs:     b.inputs,
		Outputs:    b.outputs,
		netByName:  b.netByName,
		gateByName: b.gateByName,
		levels:     levels,
	}, nil
}

// linkFanout fills every net's Fanout from one backing array: pins in gate
// declaration order, then pin index order, each net's sub-slice capacity
// clamped so an append to one net's list never overwrites the next.
func (b *Builder) linkFanout() {
	next := make([]int32, len(b.nets)) // net ID -> next free slot of its range
	total := int32(0)
	for id, st := range b.netState {
		next[id] = total
		total += st.fanout
	}
	all := make([]*Pin, total)
	for _, g := range b.gates {
		for _, p := range g.Inputs {
			all[next[p.Net.ID]] = p
			next[p.Net.ID]++
		}
	}
	for _, n := range b.nets {
		hi := next[n.ID] // filled: next[id] is now the end of net id's range
		lo := hi - b.netState[n.ID].fanout
		n.Fanout = nil
		if lo < hi {
			n.Fanout = all[lo:hi:hi]
		}
	}
}

// levelize assigns every gate its topological level with Kahn's algorithm
// over ID-indexed in-degrees, and returns the level count. Gates left with
// unresolved inputs sit on or behind a combinational cycle.
func (b *Builder) levelize() (int, error) {
	indeg := make([]int32, len(b.gates))
	queue := make([]*Gate, 0, len(b.gates))
	for _, g := range b.gates {
		g.Level = 0
		for _, p := range g.Inputs {
			if p.Net.Driver != nil {
				indeg[g.ID]++
			}
		}
		if indeg[g.ID] == 0 {
			queue = append(queue, g)
		}
	}
	levels := 0
	for head := 0; head < len(queue); head++ {
		g := queue[head]
		levels = max(levels, g.Level+1)
		for _, p := range g.Output.Fanout {
			succ := p.Gate
			indeg[succ.ID]--
			succ.Level = max(succ.Level, g.Level+1)
			if indeg[succ.ID] == 0 {
				queue = append(queue, succ)
			}
		}
	}
	if len(queue) != len(b.gates) {
		for _, g := range b.gates {
			if indeg[g.ID] > 0 {
				return 0, fmt.Errorf("netlist: combinational cycle through gate %q", g.Name)
			}
		}
	}
	return levels, nil
}

// MustBuild is Build for tests and generators of known-good circuits.
func (b *Builder) MustBuild() *Circuit {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}
