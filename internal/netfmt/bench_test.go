package netfmt

import (
	"bytes"
	"strings"
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/netlist"
	"halotis/internal/sim"
)

func parseBench(t *testing.T, src string) *netlist.Circuit {
	t.Helper()
	ckt, err := ParseBench(strings.NewReader(src), cellib.Default06())
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	return ckt
}

func TestParseBenchC17(t *testing.T) {
	ckt := parseBench(t, C17Bench())
	s := ckt.Stats()
	if s.Gates != 6 || s.Inputs != 5 || s.Outputs != 2 {
		t.Fatalf("c17 structure wrong: %s", s)
	}
	if s.ByKind[cellib.NAND2] != 6 {
		t.Fatalf("c17 should be 6 NAND2, got %v", s.ByKind)
	}
	// Truth check at a known vector: with every input high, net 10 falls,
	// forcing 22 high, while 16 and 19 both go high, forcing 23 low.
	out, err := ckt.EvalBool(map[string]bool{"1": true, "2": true, "3": true, "6": true, "7": true})
	if err != nil {
		t.Fatal(err)
	}
	if !out["22"] || out["23"] {
		t.Fatalf("c17(all ones) = %v, want 22=1 23=0", out)
	}
}

func TestParseBenchSimulatesEndToEnd(t *testing.T) {
	ckt := parseBench(t, C17Bench())
	st := sim.Stimulus{
		"1": {Edges: []sim.InputEdge{{Time: 1, Rising: true, Slew: 0.2}}},
		"3": {Init: true},
	}
	res, err := sim.NewEngine(ckt, sim.Options{}).Run(st, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventsProcessed == 0 {
		t.Fatal("no events processed simulating c17")
	}
	if wf := res.Waveform("22"); wf == nil || wf.Len() == 0 {
		t.Fatal("output 22 never switched")
	}
}

// TestParseBenchWideFanin checks the tree decomposition: logic function
// preserved for every width and function, with only supported cells used.
func TestParseBenchWideFanin(t *testing.T) {
	funcs := []struct {
		name string
		eval func(in []bool) bool
	}{
		{"AND", func(in []bool) bool { return allOf(in) }},
		{"NAND", func(in []bool) bool { return !allOf(in) }},
		{"OR", func(in []bool) bool { return anyOf(in) }},
		{"NOR", func(in []bool) bool { return !anyOf(in) }},
		{"XOR", func(in []bool) bool { return parity(in) }},
		{"XNOR", func(in []bool) bool { return !parity(in) }},
	}
	for _, fn := range funcs {
		for width := 2; width <= 9; width++ {
			var b strings.Builder
			names := make([]string, width)
			for i := range names {
				names[i] = string(rune('a' + i))
				b.WriteString("INPUT(" + names[i] + ")\n")
			}
			b.WriteString("OUTPUT(y)\n")
			b.WriteString("y = " + fn.name + "(" + strings.Join(names, ", ") + ")\n")
			ckt := parseBench(t, b.String())

			for v := 0; v < 1<<width; v++ {
				in := make(map[string]bool, width)
				bits := make([]bool, width)
				for i := range names {
					bits[i] = v>>i&1 == 1
					in[names[i]] = bits[i]
				}
				out, err := ckt.EvalBool(in)
				if err != nil {
					t.Fatalf("%s width %d: %v", fn.name, width, err)
				}
				if out["y"] != fn.eval(bits) {
					t.Fatalf("%s width %d vector %b: got %v want %v",
						fn.name, width, v, out["y"], fn.eval(bits))
				}
			}
		}
	}
}

func allOf(in []bool) bool {
	for _, v := range in {
		if !v {
			return false
		}
	}
	return true
}

func anyOf(in []bool) bool {
	for _, v := range in {
		if v {
			return true
		}
	}
	return false
}

func parity(in []bool) bool {
	p := false
	for _, v := range in {
		p = p != v
	}
	return p
}

// TestParseBenchUnaryGates pins the degenerate single-input lowerings:
// AND/OR/XOR/BUFF pass through, NAND/NOR/NOT/XNOR invert.
func TestParseBenchUnaryGates(t *testing.T) {
	cases := []struct {
		fn     string
		invert bool
	}{
		{"AND", false}, {"OR", false}, {"XOR", false}, {"BUFF", false},
		{"NAND", true}, {"NOR", true}, {"NOT", true}, {"XNOR", true},
	}
	for _, c := range cases {
		ckt := parseBench(t, "INPUT(a)\nOUTPUT(y)\ny = "+c.fn+"(a)\n")
		for _, a := range []bool{false, true} {
			out, err := ckt.EvalBool(map[string]bool{"a": a})
			if err != nil {
				t.Fatalf("%s: %v", c.fn, err)
			}
			if want := a != c.invert; out["y"] != want {
				t.Errorf("%s(%v) = %v, want %v", c.fn, a, out["y"], want)
			}
		}
	}
}

func TestParseBenchContinuationLines(t *testing.T) {
	ckt := parseBench(t, `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = NAND(a,
         b,
         c)
`)
	if got := ckt.Stats().ByKind[cellib.NAND3]; got != 1 {
		t.Fatalf("wrapped NAND3 not parsed: %v", ckt.Stats().ByKind)
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"dff", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n", "sequential"},
		{"unknownFunc", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "unknown gate function"},
		{"noInputs", "OUTPUT(y)\ny = NOT(y)\n", "no INPUT"},
		{"badDecl", "WIBBLE(a)\n", "unknown declaration"},
		{"emptyArg", "INPUT(a)\nOUTPUT(y)\ny = AND(a,)\n", "empty argument"},
		{"unterminated", "INPUT(a)\nOUTPUT(y)\ny = AND(a,\n", "unterminated"},
		{"noCall", "INPUT(a)\nOUTPUT(y)\ny = \n", "malformed"},
	}
	for _, c := range cases {
		_, err := ParseBench(strings.NewReader(c.src), cellib.Default06())
		if err == nil {
			t.Errorf("%s: parse accepted bad input", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestBenchRoundTrip serializes c17 back to .bench and to the native format
// and reparses both: structure and logic must survive.
func TestBenchRoundTrip(t *testing.T) {
	ckt := parseBench(t, C17Bench())

	var bench bytes.Buffer
	if err := WriteBench(&bench, ckt); err != nil {
		t.Fatal(err)
	}
	back := parseBench(t, bench.String())
	if back.Stats().String() != ckt.Stats().String() {
		t.Fatalf(".bench round trip changed structure:\n %s\n %s", ckt.Stats(), back.Stats())
	}

	// Round trip through the native format as well: .bench -> native -> parse.
	var native bytes.Buffer
	if err := WriteCircuit(&native, ckt); err != nil {
		t.Fatal(err)
	}
	nat, err := ParseCircuit(strings.NewReader(native.String()), cellib.Default06())
	if err != nil {
		t.Fatalf("native reparse: %v", err)
	}
	if nat.Stats().String() != ckt.Stats().String() {
		t.Fatalf("native round trip changed structure:\n %s\n %s", ckt.Stats(), nat.Stats())
	}

	// Logic equivalence across both round trips on every input vector.
	ins := []string{"1", "2", "3", "6", "7"}
	for v := 0; v < 1<<len(ins); v++ {
		vec := make(map[string]bool, len(ins))
		for i, n := range ins {
			vec[n] = v>>i&1 == 1
		}
		want, err := ckt.EvalBool(vec)
		if err != nil {
			t.Fatal(err)
		}
		for _, other := range []*netlist.Circuit{back, nat} {
			got, err := other.EvalBool(vec)
			if err != nil {
				t.Fatal(err)
			}
			for name, w := range want {
				if got[name] != w {
					t.Fatalf("vector %b output %s: got %v want %v", v, name, got[name], w)
				}
			}
		}
	}
}

func TestWriteBenchRejectsComposites(t *testing.T) {
	b := netlist.NewBuilder("aoi", cellib.Default06())
	b.Input("a")
	b.Input("b")
	b.Input("c")
	b.AddGate("g", cellib.AOI21, "y", "a", "b", "c")
	b.Output("y")
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBench(&bytes.Buffer{}, ckt); err == nil {
		t.Fatal("WriteBench accepted AOI21, which .bench cannot express")
	}
}
