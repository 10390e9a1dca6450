package netlist

import (
	"math"
	"strings"
	"testing"

	"halotis/internal/cellib"
)

func lib() *cellib.Library { return cellib.Default06() }

// buildInvChain builds in -> inv0 -> n0 -> inv1 -> n1 ... -> out.
func buildInvChain(t *testing.T, n int) *Circuit {
	t.Helper()
	b := NewBuilder("chain", lib())
	b.Input("in")
	prev := "in"
	for i := 0; i < n; i++ {
		out := "n" + string(rune('0'+i))
		if i == n-1 {
			out = "out"
		}
		b.AddGate("inv"+string(rune('0'+i)), cellib.INV, out, prev)
		prev = out
	}
	b.Output("out")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func TestBuildChain(t *testing.T) {
	c := buildInvChain(t, 3)
	if got := len(c.Gates); got != 3 {
		t.Errorf("gates = %d, want 3", got)
	}
	if got := len(c.Nets); got != 4 {
		t.Errorf("nets = %d, want 4", got)
	}
	if c.Depth() != 3 {
		t.Errorf("depth = %d, want 3", c.Depth())
	}
	if n := c.NetByName("out"); n == nil || !n.IsOutput {
		t.Error("out net missing or not marked output")
	}
	if g := c.GateByName("inv1"); g == nil || g.Level != 1 {
		t.Errorf("inv1 level wrong: %+v", g)
	}
	if c.NetByName("in").IsPrimaryInput() == false {
		t.Error("in should be a primary input")
	}
}

func TestLoadComputation(t *testing.T) {
	b := NewBuilder("load", lib())
	b.Input("a")
	b.AddGate("g1", cellib.INV, "n1", "a")
	b.AddGate("g2", cellib.INV, "o1", "n1")
	b.AddGate("g3", cellib.INV, "o2", "n1")
	b.SetWireCap("n1", 0.005)
	b.Output("o1")
	b.Output("o2")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	inv := lib().Cell(cellib.INV)
	n1 := c.NetByName("n1")
	want := 2*inv.Pins[0].CIn + inv.COut + 0.005
	if got := n1.Load(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Load(n1) = %g, want %g", got, want)
	}
	// Primary input load: one pin, no driver COut.
	a := c.NetByName("a")
	if got := a.Load(); math.Abs(got-inv.Pins[0].CIn) > 1e-12 {
		t.Errorf("Load(a) = %g, want %g", got, inv.Pins[0].CIn)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
		want  string
	}{
		{"undriven", func(b *Builder) {
			b.AddGate("g", cellib.INV, "out", "ghost")
			b.Output("out")
		}, "no driver"},
		{"double-drive", func(b *Builder) {
			b.Input("a")
			b.AddGate("g1", cellib.INV, "x", "a")
			b.AddGate("g2", cellib.INV, "x", "a")
			b.Output("x")
		}, "driven by both"},
		{"driven-input", func(b *Builder) {
			b.Input("a")
			b.Input("x")
			b.AddGate("g1", cellib.INV, "x", "a")
			b.Output("x")
		}, "is driven"},
		{"dangling", func(b *Builder) {
			b.Input("a")
			b.AddGate("g1", cellib.INV, "x", "a")
			b.AddGate("g2", cellib.INV, "y", "a")
			b.Output("x")
		}, "dangling"},
		{"arity", func(b *Builder) {
			b.Input("a")
			b.AddGate("g1", cellib.NAND2, "x", "a")
			b.Output("x")
		}, "takes 2 inputs"},
		{"dup-gate", func(b *Builder) {
			b.Input("a")
			b.AddGate("g1", cellib.INV, "x", "a")
			b.AddGate("g1", cellib.INV, "y", "a")
			b.Output("x")
			b.Output("y")
		}, "duplicate gate"},
		{"cycle", func(b *Builder) {
			b.Input("a")
			b.AddGate("g1", cellib.NAND2, "x", "a", "y")
			b.AddGate("g2", cellib.INV, "y", "x")
			b.Output("x")
			b.Output("y")
		}, "cycle"},
		{"bad-vt", func(b *Builder) {
			b.Input("a")
			b.AddGate("g1", cellib.INV, "x", "a")
			b.SetPinVT("g1", 0, 7)
			b.Output("x")
		}, "VT"},
		{"vt-unknown-gate", func(b *Builder) {
			b.Input("a")
			b.AddGate("g1", cellib.INV, "x", "a")
			b.SetPinVT("nope", 0, 2)
			b.Output("x")
		}, "unknown gate"},
		{"vt-bad-pin", func(b *Builder) {
			b.Input("a")
			b.AddGate("g1", cellib.INV, "x", "a")
			b.SetPinVT("g1", 3, 2)
			b.Output("x")
		}, "no pin"},
		{"neg-wirecap", func(b *Builder) {
			b.Input("a")
			b.AddGate("g1", cellib.INV, "x", "a")
			b.SetWireCap("x", -1)
			b.Output("x")
		}, "negative wire"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder(c.name, lib())
			c.build(b)
			_, err := b.Build()
			if err == nil {
				t.Fatalf("Build accepted bad circuit %q", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestSetPinVT(t *testing.T) {
	b := NewBuilder("vt", lib())
	b.Input("a")
	b.AddGate("g1", cellib.INV, "x", "a")
	b.SetPinVT("g1", 0, 1.2)
	b.Output("x")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := c.GateByName("g1").Inputs[0].VT; got != 1.2 {
		t.Errorf("VT = %g, want 1.2", got)
	}
}

func TestInputIdempotent(t *testing.T) {
	b := NewBuilder("i", lib())
	b.Input("a")
	b.Input("a")
	b.AddGate("g1", cellib.INV, "x", "a")
	b.Output("x")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(c.Inputs) != 1 {
		t.Errorf("inputs = %d, want 1", len(c.Inputs))
	}
}

func TestEvalBool(t *testing.T) {
	// Full-adder truth table via direct AND/OR/XOR gates.
	b := NewBuilder("fa", lib())
	b.Input("a")
	b.Input("b")
	b.Input("ci")
	b.AddGate("x1", cellib.XOR2, "axb", "a", "b")
	b.AddGate("x2", cellib.XOR2, "s", "axb", "ci")
	b.AddGate("a1", cellib.AND2, "ab", "a", "b")
	b.AddGate("a2", cellib.AND2, "cx", "axb", "ci")
	b.AddGate("o1", cellib.OR2, "co", "ab", "cx")
	b.Output("s")
	b.Output("co")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for mask := 0; mask < 8; mask++ {
		a, bb, ci := mask&1 == 1, mask&2 == 2, mask&4 == 4
		got, err := c.EvalBool(map[string]bool{"a": a, "b": bb, "ci": ci})
		if err != nil {
			t.Fatalf("EvalBool: %v", err)
		}
		sum := boolToInt(a) + boolToInt(bb) + boolToInt(ci)
		if got["s"] != (sum%2 == 1) {
			t.Errorf("mask %d: s = %v, want %v", mask, got["s"], sum%2 == 1)
		}
		if got["co"] != (sum >= 2) {
			t.Errorf("mask %d: co = %v, want %v", mask, got["co"], sum >= 2)
		}
	}
	// Missing input is an error.
	if _, err := c.EvalBool(map[string]bool{"a": true}); err == nil {
		t.Error("EvalBool with missing inputs should fail")
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// buildMixedOrder builds a four-level circuit whose gates are declared out
// of level order, with two gates on levels 0 and 1 and several multi-pin
// fanouts:
//
//	level 0: g1 = INV(a), g5 = INV(b)
//	level 1: g2 = NAND2(x1, b), g6 = NOR2(b, x1)
//	level 2: g0 = NAND2(x2, x2)
//	level 3: g4 = NAND3(x3, y, x6)
func buildMixedOrder(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("mixed", lib())
	b.Input("a")
	b.Input("b")
	b.AddGate("g0", cellib.NAND2, "x3", "x2", "x2")
	b.AddGate("g1", cellib.INV, "x1", "a")
	b.AddGate("g2", cellib.NAND2, "x2", "x1", "b")
	b.AddGate("g4", cellib.NAND3, "z", "x3", "y", "x6")
	b.AddGate("g5", cellib.INV, "y", "b")
	b.AddGate("g6", cellib.NOR2, "x6", "b", "x1")
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func TestGatesByLevelOrdering(t *testing.T) {
	for _, c := range []*Circuit{buildInvChain(t, 5), buildMixedOrder(t)} {
		order := c.GatesByLevel()
		if len(order) != len(c.Gates) {
			t.Fatalf("%s: GatesByLevel returned %d gates, want %d", c.Name, len(order), len(c.Gates))
		}
		for i := 1; i < len(order); i++ {
			prev, g := order[i-1], order[i]
			if g.Level < prev.Level {
				t.Fatalf("%s: GatesByLevel not sorted: level %d after %d", c.Name, g.Level, prev.Level)
			}
			if g.Level == prev.Level && g.ID < prev.ID {
				t.Fatalf("%s: level %d not in ID order: %s after %s", c.Name, g.Level, g.Name, prev.Name)
			}
		}
	}
	var names []string
	for _, g := range buildMixedOrder(t).GatesByLevel() {
		names = append(names, g.Name)
	}
	if got, want := strings.Join(names, " "), "g1 g5 g2 g6 g0 g4"; got != want {
		t.Errorf("GatesByLevel = %s, want %s", got, want)
	}
}

// TestFanoutOrder pins every net's Fanout to the reference order: gates in
// ID (declaration) order, then pins in index order. That order fixes the
// kernel's event insertion order on simultaneous crossings, so a change to
// it would change simulated results.
func TestFanoutOrder(t *testing.T) {
	c := buildMixedOrder(t)
	for _, n := range c.Nets {
		var want []*Pin
		for _, g := range c.Gates {
			for _, p := range g.Inputs {
				if p.Net == n {
					want = append(want, p)
				}
			}
		}
		if len(n.Fanout) != len(want) {
			t.Fatalf("net %s: fanout %d pins, want %d", n.Name, len(n.Fanout), len(want))
		}
		for i := range want {
			if n.Fanout[i] != want[i] {
				t.Errorf("net %s: Fanout[%d] = %s, want %s", n.Name, i, n.Fanout[i], want[i])
			}
		}
	}
	if got := len(c.NetByName("b").Fanout); got != 3 {
		t.Errorf("fanout of b = %d, want 3", got)
	}
}

// TestAppendAfterBuildIsolated checks that the lists Build carves from
// shared backing arrays have their capacity clamped: appending to one
// net's Fanout or one gate's Inputs must not overwrite a neighbour's.
func TestAppendAfterBuildIsolated(t *testing.T) {
	c := buildMixedOrder(t)
	snapshot := func() [][]*Pin {
		var lists [][]*Pin
		for _, n := range c.Nets {
			lists = append(lists, append([]*Pin(nil), n.Fanout...))
		}
		for _, g := range c.Gates {
			lists = append(lists, append([]*Pin(nil), g.Inputs...))
		}
		return lists
	}
	check := func(what string, before [][]*Pin, skip int) {
		t.Helper()
		after := snapshot()
		for i := range before {
			if i == skip {
				continue
			}
			if len(after[i]) != len(before[i]) {
				t.Fatalf("append to %s changed list %d's length", what, i)
			}
			for j := range before[i] {
				if after[i][j] != before[i][j] {
					t.Fatalf("append to %s overwrote list %d", what, i)
				}
			}
		}
	}
	stray := &Pin{Index: -1}
	for i, n := range c.Nets {
		before := snapshot()
		saved := n.Fanout
		n.Fanout = append(n.Fanout, stray)
		check("net "+n.Name+"'s Fanout", before, i)
		n.Fanout = saved
	}
	for i, g := range c.Gates {
		before := snapshot()
		saved := g.Inputs
		g.Inputs = append(g.Inputs, stray)
		check("gate "+g.Name+"'s Inputs", before, len(c.Nets)+i)
		g.Inputs = saved
	}
}

func TestStats(t *testing.T) {
	c := buildInvChain(t, 4)
	s := c.Stats()
	if s.Gates != 4 || s.Inputs != 1 || s.Outputs != 1 || s.Depth != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.ByKind[cellib.INV] != 4 {
		t.Errorf("ByKind[INV] = %d, want 4", s.ByKind[cellib.INV])
	}
	if s.TotalLoad <= 0 {
		t.Error("TotalLoad should be positive")
	}
	if str := s.String(); !strings.Contains(str, "4 gates") {
		t.Errorf("Stats.String = %q", str)
	}
}

func TestPinString(t *testing.T) {
	c := buildInvChain(t, 1)
	p := c.GateByName("inv0").Inputs[0]
	if s := p.String(); !strings.Contains(s, "inv0") {
		t.Errorf("Pin.String = %q", s)
	}
}

func TestReconvergentFanout(t *testing.T) {
	// a -> inv -> n; n feeds both NAND inputs: classic glitch structure.
	b := NewBuilder("reconv", lib())
	b.Input("a")
	b.AddGate("i1", cellib.INV, "n", "a")
	b.AddGate("n1", cellib.NAND2, "out", "n", "a")
	b.Output("out")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := len(c.NetByName("a").Fanout); got != 2 {
		t.Errorf("fanout of a = %d, want 2", got)
	}
	res, err := c.EvalBool(map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	if res["out"] != true { // !(0 & 1) = 1
		t.Errorf("out = %v, want true", res["out"])
	}
}

func TestUnknownCellKind(t *testing.T) {
	empty := cellib.NewLibrary("empty", 5)
	b := NewBuilder("x", empty)
	b.Input("a")
	b.AddGate("g", cellib.INV, "out", "a")
	b.Output("out")
	if _, err := b.Build(); err == nil {
		t.Error("gate from missing cell accepted")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on invalid circuit")
		}
	}()
	b := NewBuilder("bad", lib())
	b.AddGate("g", cellib.INV, "out", "ghost")
	b.Output("out")
	b.MustBuild()
}
