package netfmt

import (
	_ "embed"
	"fmt"
	"io"
	"strings"

	"halotis/internal/cellib"
	"halotis/internal/netlist"
)

// This file implements the ISCAS85 ".bench" netlist format, the lingua
// franca of gate-level benchmark circuits:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G22)
//	G10 = NAND(G1, G3)
//	G22 = NOT(G10)
//
// Supported functions are AND, NAND, OR, NOR, NOT, BUFF, XOR and XNOR
// (case-insensitive). Fan-ins wider than the cell library's widest matching
// cell are decomposed into trees of narrower cells with auto-named
// intermediate nets (<out>__r0, __r1, ...), so arbitrary ISCAS85 circuits
// map onto the cellib kinds. Sequential elements (DFF) are rejected — the
// simulator is combinational.

//go:embed c17.bench
var c17Bench string

// C17Bench is the embedded ISCAS85 c17 benchmark in .bench format, the
// canonical smoke-test circuit (5 inputs, 6 NAND2 gates, 2 outputs).
func C17Bench() string { return c17Bench }

// ParseBench reads an ISCAS85 .bench netlist and builds a circuit over the
// given library. The circuit is named "bench"; callers with a file name
// should use ParseCircuitFile with FormatBench (or FormatAuto), which names
// the circuit after the file and stamps parse errors with it.
func ParseBench(r io.Reader, lib *cellib.Library) (*netlist.Circuit, error) {
	scanner := newLineScanner(r)
	b := netlist.NewBuilder("bench", lib)
	var inputs, outputs []string

	lineNo := 0
	stmtLine := 0 // first line of the statement being accumulated
	pending := "" // continuation accumulator for statements split across lines
	flush := func(stmt string) error {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			return nil
		}
		return parseBenchStatement(b, stmtLine, stmt, &inputs, &outputs)
	}

	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if pending == "" {
			stmtLine = lineNo
		}
		pending += " " + line
		// A statement is complete once its parentheses balance; wide-fanin
		// gate lists in real ISCAS85 distributions wrap across lines.
		if strings.Count(pending, "(") > strings.Count(pending, ")") {
			continue
		}
		if err := flush(pending); err != nil {
			return nil, err
		}
		pending = ""
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if strings.TrimSpace(pending) != "" {
		return nil, errAt(stmtLine, "unterminated statement %q", strings.TrimSpace(pending))
	}
	if len(inputs) == 0 {
		return nil, errAt(lineNo, "bench file declares no INPUT")
	}
	for _, in := range inputs {
		b.Input(in)
	}
	for _, out := range outputs {
		b.Output(out)
	}
	return b.Build()
}

// parseBenchStatement handles one complete statement: an INPUT/OUTPUT
// declaration or a gate assignment.
func parseBenchStatement(b *netlist.Builder, line int, stmt string, inputs, outputs *[]string) error {
	if eq := strings.IndexByte(stmt, '='); eq >= 0 {
		out := strings.TrimSpace(stmt[:eq])
		if out == "" {
			return errAt(line, "assignment with empty output net")
		}
		fn, args, err := splitCall(line, stmt[eq+1:])
		if err != nil {
			return err
		}
		return emitBenchGate(b, line, out, fn, args)
	}
	fn, args, err := splitCall(line, stmt)
	if err != nil {
		return err
	}
	if len(args) != 1 {
		return errAt(line, "%s takes exactly one net, got %d", fn, len(args))
	}
	switch strings.ToUpper(fn) {
	case "INPUT":
		*inputs = append(*inputs, args[0])
	case "OUTPUT":
		*outputs = append(*outputs, args[0])
	default:
		return errAt(line, "unknown declaration %q (want INPUT or OUTPUT)", fn)
	}
	return nil
}

// splitCall parses "FUNC(a, b, c)" into the function name and argument nets.
func splitCall(line int, s string) (string, []string, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, errAt(line, "malformed call %q (want FUNC(net, ...))", s)
	}
	fn := strings.TrimSpace(s[:open])
	if fn == "" {
		return "", nil, errAt(line, "call %q has no function name", s)
	}
	var args []string
	for _, a := range strings.Split(s[open+1:len(s)-1], ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return "", nil, errAt(line, "call %q has an empty argument", s)
		}
		if strings.ContainsAny(a, "() \t") {
			return "", nil, errAt(line, "bad net name %q", a)
		}
		args = append(args, a)
	}
	if len(args) == 0 {
		return "", nil, errAt(line, "call %q has no arguments", s)
	}
	return fn, args, nil
}

// emitBenchGate lowers one bench assignment onto library cells, decomposing
// fan-ins wider than the widest matching cell. Auto-named intermediate nets
// (<out>__r0, __r1, ...) are scoped to the driven net, which is unique per
// assignment; a genuine collision with a source net surfaces as the
// builder's double-driver error.
func emitBenchGate(b *netlist.Builder, line int, out, fn string, args []string) error {
	n := len(args)
	aux := 0
	switch strings.ToUpper(fn) {
	case "NOT", "INV":
		if n != 1 {
			return errAt(line, "NOT takes one input, got %d", n)
		}
		b.AddGate("g_"+out, cellib.INV, out, args[0])
	case "BUFF", "BUF":
		if n != 1 {
			return errAt(line, "BUFF takes one input, got %d", n)
		}
		b.AddGate("g_"+out, cellib.BUF, out, args[0])
	case "AND":
		emitAssocTree(b, &aux, out, args, cellib.AND2, cellib.AND3)
	case "OR":
		emitAssocTree(b, &aux, out, args, cellib.OR2, cellib.OR3)
	case "NAND":
		emitInvertedTree(b, &aux, out, args,
			[]cellib.Kind{0, 0, cellib.NAND2, cellib.NAND3, cellib.NAND4},
			cellib.AND2, cellib.AND3, cellib.NAND2)
	case "NOR":
		emitInvertedTree(b, &aux, out, args,
			[]cellib.Kind{0, 0, cellib.NOR2, cellib.NOR3, cellib.NOR4},
			cellib.OR2, cellib.OR3, cellib.NOR2)
	case "XOR":
		emitAssocTree(b, &aux, out, args, cellib.XOR2, 0)
	case "XNOR":
		if n == 1 {
			// Complement of the 1-input parity: NOT(a).
			b.AddGate("g_"+out, cellib.INV, out, args[0])
			return nil
		}
		// XNOR(a1..an) = XNOR2(XOR-fold(a1..a(n-1)), an).
		t := reduceAssoc(b, &aux, out, args[:n-1], cellib.XOR2, 0)
		b.AddGate("g_"+out, cellib.XNOR2, out, t, args[n-1])
	case "DFF", "DFFSR", "LATCH":
		return errAt(line, "sequential element %s not supported (combinational circuits only)", strings.ToUpper(fn))
	default:
		return errAt(line, "unknown gate function %q", fn)
	}
	return nil
}

// emitAssocTree lowers an associative function (AND/OR/XOR) of any fan-in
// onto 2- and optionally 3-input cells, driving out. A single-input call
// degenerates to a buffer, which some generators emit.
func emitAssocTree(b *netlist.Builder, aux *int, out string, args []string, k2, k3 cellib.Kind) {
	if len(args) == 1 {
		b.AddGate("g_"+out, cellib.BUF, out, args[0])
		return
	}
	reduceAssocInto(b, aux, out, out, args, k2, k3)
}

// emitInvertedTree lowers NAND/NOR of any fan-in: native cells up to width
// 4, else an associative reduction of the first n-1 inputs followed by one
// final inverting 2-input stage (NAND(a1..an) = NAND2(AND(a1..a(n-1)), an)).
func emitInvertedTree(b *netlist.Builder, aux *int, out string, args []string, native []cellib.Kind, k2, k3, kfinal cellib.Kind) {
	n := len(args)
	switch {
	case n == 1:
		b.AddGate("g_"+out, cellib.INV, out, args[0])
	case n < len(native):
		b.AddGate("g_"+out, native[n], out, args...)
	default:
		t := reduceAssoc(b, aux, out, args[:n-1], k2, k3)
		b.AddGate("g_"+out, kfinal, out, t, args[n-1])
	}
}

// fresh returns the next auto-named intermediate net for prefix.
func fresh(aux *int, prefix string) string {
	t := fmt.Sprintf("%s__r%d", prefix, *aux)
	*aux++
	return t
}

// reduceAssoc folds nets with an associative 2-input (and optionally
// 3-input) cell into a single auto-named net, which it returns.
func reduceAssoc(b *netlist.Builder, aux *int, prefix string, nets []string, k2, k3 cellib.Kind) string {
	if len(nets) == 1 {
		return nets[0]
	}
	t := fresh(aux, prefix)
	reduceAssocInto(b, aux, prefix, t, nets, k2, k3)
	return t
}

// reduceAssocInto folds nets into the named output net, greedily taking the
// widest available cell per stage so trees stay shallow.
func reduceAssocInto(b *netlist.Builder, aux *int, prefix, out string, nets []string, k2, k3 cellib.Kind) {
	cur := nets
	for len(cur) > 3 || (len(cur) == 3 && k3 == 0) {
		var next []string
		for i := 0; i < len(cur); {
			rem := len(cur) - i
			if rem == 1 {
				next = append(next, cur[i])
				i++
				continue
			}
			w := 2
			// Take three only when a 3-input cell exists and it doesn't
			// strand a lone operand for the final 2-input stage.
			if k3 != 0 && rem != 4 && rem >= 3 {
				w = 3
			}
			t := fresh(aux, prefix)
			kind := k2
			if w == 3 {
				kind = k3
			}
			b.AddGate("g_"+t, kind, t, cur[i:i+w]...)
			next = append(next, t)
			i += w
		}
		cur = next
	}
	switch len(cur) {
	case 3:
		b.AddGate("g_"+out, k3, out, cur...)
	case 2:
		b.AddGate("g_"+out, k2, out, cur[0], cur[1])
	default:
		b.AddGate("g_"+out, cellib.BUF, out, cur[0])
	}
}

// benchFunc maps a cell kind back onto its .bench function name; ok is
// false for kinds the format cannot express (AOI/OAI composites).
func benchFunc(k cellib.Kind) (string, bool) {
	switch k {
	case cellib.INV:
		return "NOT", true
	case cellib.BUF:
		return "BUFF", true
	case cellib.NAND2, cellib.NAND3, cellib.NAND4:
		return "NAND", true
	case cellib.NOR2, cellib.NOR3, cellib.NOR4:
		return "NOR", true
	case cellib.AND2, cellib.AND3:
		return "AND", true
	case cellib.OR2, cellib.OR3:
		return "OR", true
	case cellib.XOR2:
		return "XOR", true
	case cellib.XNOR2:
		return "XNOR", true
	}
	return "", false
}

// WriteBench serializes a circuit in ISCAS85 .bench format. Per-pin
// threshold overrides and wire capacitances have no representation in the
// format and are not written; AOI/OAI composites are rejected. Parsing the
// output reproduces a logically equivalent circuit.
func WriteBench(w io.Writer, ckt *netlist.Circuit) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n# %d inputs\n# %d outputs\n# %d gates\n\n",
		ckt.Name, len(ckt.Inputs), len(ckt.Outputs), len(ckt.Gates))
	for _, in := range ckt.Inputs {
		fmt.Fprintf(&b, "INPUT(%s)\n", in.Name)
	}
	b.WriteByte('\n')
	for _, o := range ckt.Outputs {
		fmt.Fprintf(&b, "OUTPUT(%s)\n", o.Name)
	}
	b.WriteByte('\n')
	for _, g := range ckt.Gates {
		fn, ok := benchFunc(g.Cell.Kind)
		if !ok {
			return fmt.Errorf("netfmt: cell kind %s of gate %q has no .bench equivalent", g.Cell.Kind, g.Name)
		}
		fmt.Fprintf(&b, "%s = %s(", g.Output.Name, fn)
		for i, p := range g.Inputs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.Net.Name)
		}
		b.WriteString(")\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
