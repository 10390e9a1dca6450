package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netlist"
)

// applyVector drives each circuit input toward the given bit at time t.
func applyVector(names []string, bits map[string]bool, t, slew float64, init map[string]bool) Stimulus {
	st := Stimulus{}
	for _, n := range names {
		w := InputWave{Init: init[n]}
		if bits[n] != init[n] {
			w.Edges = []InputEdge{{Time: t, Rising: bits[n], Slew: slew}}
		}
		st[n] = w
	}
	return st
}

// TestRippleCarryAdderTiming drives random operand pairs into the 4-bit RCA
// and checks the settled sum under both models.
func TestRippleCarryAdderTiming(t *testing.T) {
	ckt, err := circuits.RippleCarryAdder(lib, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var names []string
	for _, in := range ckt.Inputs {
		names = append(names, in.Name)
	}
	for trial := 0; trial < 10; trial++ {
		a, b := rng.Intn(16), rng.Intn(16)
		bits := map[string]bool{}
		for i := 0; i < 4; i++ {
			bits[fmt.Sprintf("a%d", i)] = a>>i&1 == 1
			bits[fmt.Sprintf("b%d", i)] = b>>i&1 == 1
		}
		st := applyVector(names, bits, 1, 0.15, map[string]bool{})
		for _, m := range []Model{DDM, CDM} {
			res := run(t, ckt, st, 30, m)
			out := res.OutputLogic(30, vdd/2)
			got := 0
			for i := 0; i < 4; i++ {
				if out[fmt.Sprintf("s%d", i)] {
					got |= 1 << i
				}
			}
			if out["cout"] {
				got |= 16
			}
			if got != a+b {
				t.Errorf("%v: %d+%d = %d, want %d", m, a, b, got, a+b)
			}
		}
	}
}

// TestParityTreeGlitches: a parity tree is glitch-prone by construction;
// both models must settle to the correct parity, and DDM must not emit more
// transitions than CDM.
func TestParityTreeGlitches(t *testing.T) {
	ckt, err := circuits.ParityTree(lib, 8)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	init := map[string]bool{}
	bits := map[string]bool{}
	ones := 0
	for i, in := range ckt.Inputs {
		names = append(names, in.Name)
		bits[in.Name] = i%3 != 0
		if bits[in.Name] {
			ones++
		}
	}
	st := applyVector(names, bits, 1, 0.15, init)
	ddm := run(t, ckt, st, 40, DDM)
	cdm := run(t, ckt, st, 40, CDM)
	want := ones%2 == 1
	if got := ddm.OutputLogic(40, vdd/2)["parity"]; got != want {
		t.Errorf("DDM parity = %v, want %v", got, want)
	}
	if got := cdm.OutputLogic(40, vdd/2)["parity"]; got != want {
		t.Errorf("CDM parity = %v, want %v", got, want)
	}
	if ddm.Stats.Transitions > cdm.Stats.Transitions {
		t.Errorf("DDM transitions %d exceed CDM %d", ddm.Stats.Transitions, cdm.Stats.Transitions)
	}
}

// TestC17AllVectors settles every input vector on the ISCAS C17 benchmark.
func TestC17AllVectors(t *testing.T) {
	ckt, err := circuits.C17(lib)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, in := range ckt.Inputs {
		names = append(names, in.Name)
	}
	for mask := 0; mask < 32; mask++ {
		bits := map[string]bool{}
		for i, n := range names {
			bits[n] = mask>>i&1 == 1
		}
		want, err := ckt.EvalBool(bits)
		if err != nil {
			t.Fatal(err)
		}
		st := applyVector(names, bits, 1, 0.15, map[string]bool{})
		res := run(t, ckt, st, 20, DDM)
		got := res.OutputLogic(20, vdd/2)
		for k, v := range want {
			if got[k] != v {
				t.Errorf("mask %05b: %s = %v, want %v", mask, k, got[k], v)
			}
		}
	}
}

// TestCompositeCellsSimulate exercises the logic engine on composite
// (non-primitive) cells, which the analog engine rejects but the event
// kernel must handle.
func TestCompositeCellsSimulate(t *testing.T) {
	b := netlist.NewBuilder("composite", lib)
	b.Input("a")
	b.Input("b")
	b.Input("c")
	b.AddGate("x", cellib.XOR2, "n1", "a", "b")
	b.AddGate("o", cellib.OR3, "n2", "n1", "c", "a")
	b.AddGate("q", cellib.XNOR2, "out", "n2", "b")
	b.Output("out")
	ckt := b.MustBuild()
	for mask := 0; mask < 8; mask++ {
		bits := map[string]bool{
			"a": mask&1 == 1, "b": mask&2 == 2, "c": mask&4 == 4,
		}
		want, err := ckt.EvalBool(bits)
		if err != nil {
			t.Fatal(err)
		}
		st := applyVector([]string{"a", "b", "c"}, bits, 1, 0.2, map[string]bool{})
		res := run(t, ckt, st, 20, DDM)
		if got := res.OutputLogic(20, vdd/2)["out"]; got != want["out"] {
			t.Errorf("mask %d: out = %v, want %v", mask, got, want["out"])
		}
	}
}

// TestMaxEventsGuard aborts runaway simulations.
func TestMaxEventsGuard(t *testing.T) {
	ckt := invChain(t, 2)
	var edges []InputEdge
	for i := 0; i < 50; i++ {
		t0 := 1 + 2*float64(i)
		edges = append(edges,
			InputEdge{Time: t0, Rising: true, Slew: 0.15},
			InputEdge{Time: t0 + 1, Rising: false, Slew: 0.15})
	}
	st := Stimulus{"in": InputWave{Edges: edges}}
	if _, err := NewEngine(ckt, Options{MaxEvents: 5}).Run(st, 500); err == nil {
		t.Error("event limit not enforced")
	}
	if _, err := RunClassic(ckt, st, 500, ClassicOptions{MaxEvents: 5}); err == nil {
		t.Error("classic event limit not enforced")
	}
}

// TestMinPulseAblation: the MinPulse clamp trades causal robustness for
// sliver width; the settled logic must be invariant to it.
func TestMinPulseAblation(t *testing.T) {
	ckt, err := circuits.Multiplier4x4(lib)
	if err != nil {
		t.Fatal(err)
	}
	st := mulSequenceStimulus([][2]uint64{{0, 0}, {7, 7}, {5, 0xA}, {0xE, 6}, {0xF, 0xF}}, 5.0, 0.2)
	var products []int
	for _, mp := range []float64{1e-7, 1e-6, 1e-4} {
		res, err := NewEngine(ckt, Options{Model: DDM, MinPulse: mp}).Run(st, 28)
		if err != nil {
			t.Fatalf("MinPulse %g: %v", mp, err)
		}
		out := res.OutputLogic(28, vdd/2)
		p := 0
		for k := 0; k < 8; k++ {
			if out[fmt.Sprintf("s%d", k)] {
				p |= 1 << k
			}
		}
		products = append(products, p)
	}
	for i := 1; i < len(products); i++ {
		if products[i] != products[0] {
			t.Errorf("settled product varies with MinPulse: %v", products)
		}
	}
}

// mulSequenceStimulus is a local multiplier vector-sequence builder (the
// stimuli package cannot be imported here without a cycle).
func mulSequenceStimulus(pairs [][2]uint64, period, slew float64) Stimulus {
	st := Stimulus{}
	state := map[string]bool{}
	set := func(name string, v bool, t float64, first bool) {
		w := st[name]
		if first {
			w.Init = v
		} else if state[name] != v {
			w.Edges = append(w.Edges, InputEdge{Time: t, Rising: v, Slew: slew})
		}
		st[name] = w
		state[name] = v
	}
	for k, p := range pairs {
		t := float64(k) * period
		for i := 0; i < 4; i++ {
			set(fmt.Sprintf("a%d", i), p[0]>>i&1 == 1, t, k == 0)
			set(fmt.Sprintf("b%d", i), p[1]>>i&1 == 1, t, k == 0)
		}
	}
	return st
}

// TestEngineOnRandomPrimitiveCircuits cross-checks DDM and CDM settled
// outputs against boolean evaluation on generated netlists.
func TestEngineOnRandomPrimitiveCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		ckt, err := circuits.RandomCombinational(lib, circuits.RandomOptions{
			Inputs: 4, Gates: 25, Seed: int64(trial), PrimitiveOnly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		bits := map[string]bool{}
		var names []string
		for _, in := range ckt.Inputs {
			names = append(names, in.Name)
			bits[in.Name] = rng.Intn(2) == 1
		}
		want, err := ckt.EvalBool(bits)
		if err != nil {
			t.Fatal(err)
		}
		st := applyVector(names, bits, 1, 0.15, map[string]bool{})
		for _, m := range []Model{DDM, CDM} {
			res := run(t, ckt, st, 60, m)
			got := res.OutputLogic(60, vdd/2)
			for k, v := range want {
				// Outputs that are also primary inputs follow the drive.
				if got[k] != v {
					t.Errorf("trial %d %v: %s = %v, want %v", trial, m, k, got[k], v)
				}
			}
		}
	}
}
