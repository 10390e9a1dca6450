// Package circ is the compiled circuit intermediate representation: the
// immutable, flat, index-addressed view of a netlist that every performance
// path in the repository — the simulation kernel, the batch runner, the
// statistics aggregators, waveform name lookups — runs against. Everything a
// hot loop needs per event is hoisted out of the pointer-rich netlist graph
// at compile time into small fire-ordered records: one Pin per gate input
// (owning gate, threshold, edge-parameter index), one Gate per gate (pin
// range, output net, kind, output load), and one deduplicated Edges table
// of delay-model parameters that the pins index into. Consumers perform no
// map lookups, no interface calls and no pointer chasing beyond a handful of
// record reads, and the per-event working set stays a few cache lines.
//
// A Compiled is read-only after Compile returns and is therefore safe to
// share between goroutines; Compile memoizes it on the circuit itself (via
// netlist.Circuit.Aux), so every consumer of the same circuit — engines,
// batch workers, stats — shares one copy whose lifetime is the circuit's.
//
// Pin addressing: every gate input pin gets a dense global id
//
//	pid = Gates[gateID].PinStart + pinIndex
//
// and all per-pin slabs (Pins, PinNet) as well as any consumer-side mutable
// per-pin state (the engine's input values and pending handles) are indexed
// by pid. Net fanout is stored in CSR form: FanPins[FanStart[n]:
// FanStart[n+1]] are the global pin ids listening to net n, in netlist
// fanout order, which fixes the deterministic event insertion order on
// simultaneous crossings.
package circ

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"sync"

	"halotis/internal/cellib"
	"halotis/internal/netlist"
)

// Pin is the per-pin record an event at a gate input reads: the owning
// gate, the input threshold the pin's crossings are computed against, and
// the index of the pin's delay-model parameters in Compiled.Edges.
type Pin struct {
	Gate int32 // owning IR gate index
	Edge int32 // index into Compiled.Edges
	VT   float64
}

// Gate is the per-gate record a fired event reads: the gate's pin range
// starts at PinStart and spans Kind.NumInputs() pins; Out is the driven
// net and Load that net's total capacitive load (the CL of eq. 2), pF.
type Gate struct {
	PinStart int32
	Out      int32
	Kind     cellib.Kind
	Load     float64
}

// Pins returns the half-open [lo, hi) global pin id range of the gate.
func (g *Gate) Pins() (int32, int32) {
	return g.PinStart, g.PinStart + int32(g.Kind.NumInputs())
}

// Edge holds the delay-model coefficients of one cell input pin: Rise for
// a rising output edge triggered through the pin, Fall for a falling one.
type Edge struct {
	Rise, Fall cellib.EdgeParams
}

// Compiled is the flat compiled form of one circuit.
type Compiled struct {
	// Circuit is the source netlist the IR was compiled from.
	Circuit *netlist.Circuit
	// VDD is the library supply voltage, V.
	VDD float64
	// Hash is the circuit's stable content hash (see ContentHash).
	Hash string

	// Gates is indexed by IR gate index. Gates are laid out in topological
	// level order (stable by netlist ID within a level), not netlist
	// declaration order: an event wave marching through the circuit then
	// touches records roughly sequentially, and any contiguous index range
	// of gates is a union of level slices — the shape the partitioner's
	// chunks take. GateSlot maps netlist gate IDs into this numbering.
	Gates    []Gate
	GateSlot []int32 // netlist gate ID -> IR gate index

	// Per-pin slabs, indexed by global pin id. Pins holds what the kernel
	// reads per event; PinNet (the listened net) only seeds initial state.
	Pins   []Pin
	PinNet []int32

	// Edges is the deduplicated delay-parameter table Pin.Edge indexes:
	// one entry per (cell, pin index) of every cell the circuit
	// instantiates, each cell's pins consecutive, cells in first-use
	// order. A library has a few dozen such pairs, so the table stays
	// cache-resident however large the circuit is.
	Edges []Edge

	// Per-net slabs, indexed by IR net ID. Nets are renumbered to match the
	// gate layout: primary inputs first in declaration order, then driven
	// nets in their driver's slab order, then any remaining nets in netlist
	// order — so a gate and the net it drives sit at nearby indices and the
	// per-net waveform slab is walked in roughly the same order as the gate
	// records. Load is the precomputed total capacitive load (the CL of
	// eq. 2), pF. FanStart/FanPins is the CSR fanout described in the
	// package comment. NetName supports reverse lookups without touching
	// the netlist graph.
	Load     []float64
	NetName  []string
	FanStart []int32
	FanPins  []int32

	// Inputs and Outputs are the primary interface net IDs in declaration
	// order.
	Inputs  []int32
	Outputs []int32

	// LevelOrder lists IR gate indices in topological level order for
	// settled initial-state evaluation. Since the records themselves are
	// laid out in level order this is the identity permutation, but
	// consumers iterate it rather than assuming so.
	LevelOrder []int32

	// InputSet supports stimulus validation without per-run map builds.
	InputSet map[string]bool

	netID map[string]int32

	// partMu guards partCache, the per-K memo of Partition results — the
	// only mutable state on a Compiled, and invisible to readers of the IR.
	partMu    sync.Mutex
	partCache map[int]*Partitioning
}

// Compile returns the circuit's compiled IR, memoized on the circuit itself:
// every consumer of the same circuit — across simulation runs, batch workers
// and statistics passes — shares one read-only copy. Cost on first use is
// O(gates + pins + nets).
func Compile(ckt *netlist.Circuit) *Compiled {
	return ckt.Aux(func() any { return compile(ckt) }).(*Compiled)
}

func compile(ckt *netlist.Circuit) *Compiled {
	numPins := 0
	for _, g := range ckt.Gates {
		numPins += len(g.Inputs)
	}
	c := &Compiled{
		Circuit:  ckt,
		VDD:      ckt.Lib.VDD,
		Gates:    make([]Gate, len(ckt.Gates)),
		Pins:     make([]Pin, numPins),
		PinNet:   make([]int32, numPins),
		Load:     make([]float64, len(ckt.Nets)),
		NetName:  make([]string, len(ckt.Nets)),
		FanStart: make([]int32, len(ckt.Nets)+1),
		FanPins:  make([]int32, 0, numPins),
		GateSlot: make([]int32, len(ckt.Gates)),
		Inputs:   make([]int32, len(ckt.Inputs)),
		Outputs:  make([]int32, len(ckt.Outputs)),

		LevelOrder: make([]int32, 0, len(ckt.Gates)),
		InputSet:   make(map[string]bool, len(ckt.Inputs)),
		netID:      make(map[string]int32, len(ckt.Nets)),
	}

	// Gate records in level order, nets renumbered to follow: inputs first
	// in declaration order, then driven nets as their drivers appear, then
	// anything left (see the struct comments for why).
	order := ckt.GatesByLevel()
	for slot, g := range order {
		c.GateSlot[g.ID] = int32(slot)
	}
	netSlot := make([]int32, len(ckt.Nets))
	for i := range netSlot {
		netSlot[i] = -1
	}
	newNets := make([]*netlist.Net, 0, len(ckt.Nets))
	place := func(n *netlist.Net) {
		if netSlot[n.ID] < 0 {
			netSlot[n.ID] = int32(len(newNets))
			newNets = append(newNets, n)
		}
	}
	for _, in := range ckt.Inputs {
		place(in)
	}
	for _, g := range order {
		place(g.Output)
	}
	for _, n := range ckt.Nets {
		place(n)
	}

	// The edge table is keyed by (cell, pin index), never by the parameter
	// values: a cell's pins take consecutive entries from its first use,
	// found by one pointer lookup per gate, so compile cost stays flat.
	edgeBase := make(map[*cellib.Cell]int32)
	pid := int32(0)
	for slot, g := range order {
		base, ok := edgeBase[g.Cell]
		if !ok {
			base = int32(len(c.Edges))
			edgeBase[g.Cell] = base
			for _, pp := range g.Cell.Pins {
				c.Edges = append(c.Edges, Edge{Rise: pp.Rise, Fall: pp.Fall})
			}
		}
		c.Gates[slot] = Gate{PinStart: pid, Out: netSlot[g.Output.ID], Kind: g.Cell.Kind}
		for i, p := range g.Inputs {
			c.Pins[pid] = Pin{Gate: int32(slot), Edge: base + int32(i), VT: p.VT}
			c.PinNet[pid] = netSlot[p.Net.ID]
			pid++
		}
	}

	for id, n := range newNets {
		c.Load[id] = n.Load()
		c.NetName[id] = n.Name
		c.netID[n.Name] = int32(id)
		c.FanStart[id] = int32(len(c.FanPins))
		for _, p := range n.Fanout {
			c.FanPins = append(c.FanPins, c.Gates[c.GateSlot[p.Gate.ID]].PinStart+int32(p.Index))
		}
	}
	c.FanStart[len(ckt.Nets)] = int32(len(c.FanPins))
	for i := range c.Gates {
		c.Gates[i].Load = c.Load[c.Gates[i].Out]
	}

	for i, in := range ckt.Inputs {
		c.Inputs[i] = netSlot[in.ID]
		c.InputSet[in.Name] = true
	}
	for i, o := range ckt.Outputs {
		c.Outputs[i] = netSlot[o.ID]
	}
	for slot := range order {
		c.LevelOrder = append(c.LevelOrder, int32(slot))
	}
	c.Hash = contentHash(ckt)
	return c
}

// ContentHash returns the circuit's stable content hash: a hex SHA-256 over
// a canonical rendering of the library identity (name and supply voltage)
// and the circuit structure (interface nets, gates with kinds, connectivity
// and per-pin thresholds, wire capacitances). Two circuits parsed from
// textually different but structurally equivalent netlists — e.g. the same
// .bench file with reflowed whitespace or comments — hash identically, while
// any change to topology, thresholds, loading or library identity changes
// the hash. Gate and net naming is part of the content — names are how
// stimuli and result lookups address the circuit — but the circuit's display
// name is cosmetic metadata and deliberately excluded.
//
// It hashes the netlist directly, without compiling it, so a caller that
// needs only the circuit's ID (the cluster router placing an upload) skips
// Compile. Compile stores the same value in Compiled.Hash.
func ContentHash(ckt *netlist.Circuit) string { return contentHash(ckt) }

// contentHash renders every record into one reused buffer: fields, each
// NUL-terminated, then a newline. The bytes are the hash's definition, so
// circuit IDs stay stable only while this rendering does.
func contentHash(ckt *netlist.Circuit) string {
	h := sha256.New()
	buf := make([]byte, 0, 32<<10)
	str := func(s string) {
		buf = append(buf, s...)
		buf = append(buf, 0)
	}
	// Thresholds repeat across a circuit, so num reuses the digits of the
	// last value (compared bit for bit: 0 and -0 format differently).
	var lastBits uint64
	var digits []byte
	num := func(v float64) {
		if bits := math.Float64bits(v); bits != lastBits || digits == nil {
			lastBits = bits
			digits = strconv.AppendFloat(digits[:0], v, 'g', -1, 64)
		}
		buf = append(buf, digits...)
		buf = append(buf, 0)
	}
	end := func() {
		buf = append(buf, '\n')
		if len(buf) >= 16<<10 { // hash in blocks, not record by record
			h.Write(buf)
			buf = buf[:0]
		}
	}

	str("halotis/circ content v1")
	end()
	str("lib")
	str(ckt.Lib.Name)
	num(ckt.Lib.VDD)
	end()
	for _, in := range ckt.Inputs {
		str("input")
		str(in.Name)
		end()
	}
	for _, o := range ckt.Outputs {
		str("output")
		str(o.Name)
		end()
	}
	for _, g := range ckt.Gates {
		str("gate")
		str(g.Name)
		str(g.Cell.Kind.String())
		str(g.Output.Name)
		for _, p := range g.Inputs {
			str(p.Net.Name)
			num(p.VT)
		}
		end()
	}
	for _, n := range ckt.Nets {
		if n.WireCap != 0 {
			str("wirecap")
			str(n.Name)
			num(n.WireCap)
			end()
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// NumPins returns the total gate-input pin count.
func (c *Compiled) NumPins() int { return len(c.Pins) }

// NumGates returns the gate count.
func (c *Compiled) NumGates() int { return len(c.Gates) }

// NumNets returns the net count.
func (c *Compiled) NumNets() int { return len(c.Load) }

// NetID resolves a net name to its dense ID, or -1 if the name is unknown.
func (c *Compiled) NetID(name string) int32 {
	if id, ok := c.netID[name]; ok {
		return id
	}
	return -1
}

// Fanout returns the global pin ids listening to net n.
func (c *Compiled) Fanout(n int32) []int32 { return c.FanPins[c.FanStart[n]:c.FanStart[n+1]] }
