package circ

import (
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netlist"
)

// testCircuit builds a small two-level circuit with a threshold override and
// wire capacitance, exercising every slab the compiler fills.
func testCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	lib := cellib.Default06()
	b := netlist.NewBuilder("irtest", lib)
	b.Input("a")
	b.Input("b")
	b.Input("c")
	b.AddGate("g1", cellib.NAND2, "n1", "a", "b")
	b.AddGate("g2", cellib.NOR2, "n2", "n1", "c")
	b.AddGate("g3", cellib.INV, "y", "n2")
	b.SetPinVT("g2", 1, 2.2)
	b.SetWireCap("n1", 0.05)
	b.Output("y")
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

func TestCompileMemoized(t *testing.T) {
	ckt := testCircuit(t)
	c1 := Compile(ckt)
	c2 := Compile(ckt)
	if c1 != c2 {
		t.Error("Compile did not memoize: two calls returned distinct IRs")
	}
	if c1.Circuit != ckt {
		t.Error("IR does not point back at its source circuit")
	}
}

func TestCompiledSlabs(t *testing.T) {
	ckt := testCircuit(t)
	c := Compile(ckt)

	if got, want := c.NumGates(), len(ckt.Gates); got != want {
		t.Fatalf("NumGates = %d, want %d", got, want)
	}
	if got, want := c.NumNets(), len(ckt.Nets); got != want {
		t.Fatalf("NumNets = %d, want %d", got, want)
	}
	wantPins := 0
	for _, g := range ckt.Gates {
		wantPins += len(g.Inputs)
	}
	if got := c.NumPins(); got != wantPins {
		t.Fatalf("NumPins = %d, want %d", got, wantPins)
	}
	if c.VDD != ckt.Lib.VDD {
		t.Errorf("VDD = %g, want %g", c.VDD, ckt.Lib.VDD)
	}

	// Every gate's record mirrors the netlist gate.
	for _, g := range ckt.Gates {
		gid := int32(g.ID)
		rec := c.Gates[gid]
		if rec.Kind != g.Cell.Kind {
			t.Errorf("gate %s kind %v != %v", g.Name, rec.Kind, g.Cell.Kind)
		}
		if rec.Out != int32(g.Output.ID) {
			t.Errorf("gate %s out %d != %d", g.Name, rec.Out, g.Output.ID)
		}
		if rec.Load != g.Output.Load() {
			t.Errorf("gate %s load %g != %g", g.Name, rec.Load, g.Output.Load())
		}
		lo, hi := rec.Pins()
		if int(hi-lo) != len(g.Inputs) {
			t.Fatalf("gate %s pin span %d != %d inputs", g.Name, hi-lo, len(g.Inputs))
		}
		for i, p := range g.Inputs {
			pid := lo + int32(i)
			pin := c.Pins[pid]
			if pin.Gate != gid || c.PinNet[pid] != int32(p.Net.ID) {
				t.Errorf("pin %s: gate/net slab mismatch", p)
			}
			if pin.VT != p.VT {
				t.Errorf("pin %s: VT %g != %g", p, pin.VT, p.VT)
			}
			if e := c.Edges[pin.Edge]; e.Rise != g.Cell.Pins[i].Rise || e.Fall != g.Cell.Pins[i].Fall {
				t.Errorf("pin %s: edge params differ from cell", p)
			}
		}
	}

	// Per-net: load, names, CSR fanout in netlist order.
	for _, n := range ckt.Nets {
		id := int32(n.ID)
		if c.Load[id] != n.Load() {
			t.Errorf("net %s load %g != %g", n.Name, c.Load[id], n.Load())
		}
		if c.NetName[id] != n.Name {
			t.Errorf("net %d name %q != %q", id, c.NetName[id], n.Name)
		}
		if c.NetID(n.Name) != id {
			t.Errorf("NetID(%q) = %d, want %d", n.Name, c.NetID(n.Name), id)
		}
		fan := c.Fanout(id)
		if len(fan) != len(n.Fanout) {
			t.Fatalf("net %s fanout count %d != %d", n.Name, len(fan), len(n.Fanout))
		}
		for i, p := range n.Fanout {
			want := c.Gates[p.Gate.ID].PinStart + int32(p.Index)
			if fan[i] != want {
				t.Errorf("net %s fanout[%d] = %d, want %d", n.Name, i, fan[i], want)
			}
		}
	}

	if c.NetID("no-such-net") != -1 {
		t.Error("NetID of unknown name should be -1")
	}
}

func TestCompiledInterfaceAndLevels(t *testing.T) {
	ckt := testCircuit(t)
	c := Compile(ckt)

	if len(c.Inputs) != len(ckt.Inputs) || len(c.Outputs) != len(ckt.Outputs) {
		t.Fatalf("interface sizes %d/%d, want %d/%d",
			len(c.Inputs), len(c.Outputs), len(ckt.Inputs), len(ckt.Outputs))
	}
	for i, in := range ckt.Inputs {
		if c.Inputs[i] != int32(in.ID) {
			t.Errorf("Inputs[%d] = %d, want %d", i, c.Inputs[i], in.ID)
		}
		if !c.InputSet[in.Name] {
			t.Errorf("InputSet missing %q", in.Name)
		}
	}
	for i, o := range ckt.Outputs {
		if c.Outputs[i] != int32(o.ID) {
			t.Errorf("Outputs[%d] = %d, want %d", i, c.Outputs[i], o.ID)
		}
	}

	// LevelOrder must list every gate exactly once, in nondecreasing level.
	if len(c.LevelOrder) != len(ckt.Gates) {
		t.Fatalf("LevelOrder length %d != %d", len(c.LevelOrder), len(ckt.Gates))
	}
	seen := make(map[int32]bool)
	prev := -1
	for _, gid := range c.LevelOrder {
		if seen[gid] {
			t.Fatalf("gate %d appears twice in LevelOrder", gid)
		}
		seen[gid] = true
		lvl := ckt.Gates[gid].Level
		if lvl < prev {
			t.Fatalf("LevelOrder not sorted: level %d after %d", lvl, prev)
		}
		prev = lvl
	}
}

// TestEdgeTableDedup pins the edge-parameter table's size: one entry per
// distinct (cell, pin index) the circuit instantiates, however many gates
// share it, and every entry reachable from some pin.
func TestEdgeTableDedup(t *testing.T) {
	lib := cellib.Default06()
	mult, err := circuits.Multiplier(lib, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ckt := range []*netlist.Circuit{testCircuit(t), mult} {
		c := Compile(ckt)
		type key struct {
			cell *cellib.Cell
			pin  int
		}
		distinct := map[key]bool{}
		for _, g := range ckt.Gates {
			for i := range g.Inputs {
				distinct[key{g.Cell, i}] = true
			}
		}
		if len(c.Edges) > len(distinct) {
			t.Errorf("%s: %d edge entries for %d distinct (cell, pin) pairs", ckt.Name, len(c.Edges), len(distinct))
		}
		owner := make([]key, len(c.Edges))
		used := make([]bool, len(c.Edges))
		for _, g := range ckt.Gates {
			lo, _ := c.Gates[c.GateSlot[g.ID]].Pins()
			for i := range g.Inputs {
				e := c.Pins[lo+int32(i)].Edge
				k := key{g.Cell, i}
				if used[e] && owner[e] != k {
					t.Errorf("%s: edge entry %d shared by two (cell, pin) pairs", ckt.Name, e)
				}
				owner[e], used[e] = k, true
			}
		}
		for e, u := range used {
			if !u {
				t.Errorf("%s: edge entry %d referenced by no pin", ckt.Name, e)
			}
		}
	}
}

// TestFigure1ThresholdOverrides checks that per-instance SetPinVT
// overrides land in the per-pin record, not the shared edge table: the
// paper's Fig. 1 receivers g1 and g2 are the same INV cell with different
// thresholds.
func TestFigure1ThresholdOverrides(t *testing.T) {
	ckt, err := circuits.Figure1(cellib.Default06())
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(ckt)
	want := map[string]float64{"g1": circuits.Figure1VT1, "g2": circuits.Figure1VT2}
	var edges []int32
	for _, g := range ckt.Gates {
		vt, ok := want[g.Name]
		if !ok {
			continue
		}
		pin := c.Pins[c.Gates[c.GateSlot[g.ID]].PinStart]
		if pin.VT != vt {
			t.Errorf("%s: pin VT %g, want override %g", g.Name, pin.VT, vt)
		}
		edges = append(edges, pin.Edge)
	}
	if len(edges) != 2 || edges[0] != edges[1] {
		t.Errorf("g1/g2 edge entries %v: want both INV pins on one shared entry", edges)
	}
}
