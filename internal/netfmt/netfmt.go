// Package netfmt implements the text formats of the halotis CLI: a
// line-oriented gate-level netlist format, the ISCAS85 ".bench" benchmark
// format (see bench.go) and a stimulus (input drive) format, with parsers
// that report file/line diagnostics and serializers that round-trip
// circuits built with the netlist package.
//
// Netlist format:
//
//	# comment
//	circuit mult4x4
//	input a0 a1 b0 b1
//	output s0 s1
//	gate g1 NAND2 n1 a0 b0      # gate <name> <KIND> <out> <in...>
//	wirecap n1 0.02             # extra pF on a net
//	vt g1 0 2.2                 # per-pin threshold override (gate pin V)
//
// Stimulus format:
//
//	init a0 1                   # level before the first edge
//	edge a0 5.0 rise 0.2        # edge <input> <ns> <rise|fall> [slew ns]
package netfmt

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"halotis/internal/cellib"
	"halotis/internal/netlist"
	"halotis/internal/sim"
)

// ParseError reports a diagnostic with its line number and, when parsing
// came from a named file (the ParseXxxFile entry points), the file name.
type ParseError struct {
	File string
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	if e.File != "" {
		return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
	}
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

func errAt(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// parseFinite parses a float and rejects NaN and infinities, which every
// numeric field of these formats (times, slews, capacitances, thresholds)
// would silently corrupt downstream.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

// newLineScanner reads lines of any length: its buffer starts at the
// scanner's default size and grows with the longest line, so memory is
// bounded by the input (service bodies are capped before they get here)
// rather than preset, and a circuit with a million-byte input list reads
// back.
func newLineScanner(r io.Reader) *bufio.Scanner {
	s := bufio.NewScanner(r)
	s.Buffer(nil, math.MaxInt)
	return s
}

// ParseCircuit reads the netlist format and builds a circuit over the
// given library.
func ParseCircuit(r io.Reader, lib *cellib.Library) (*netlist.Circuit, error) {
	scanner := newLineScanner(r)
	name := "circuit"
	b := netlist.NewBuilder(name, lib)
	named := false
	lineNo := 0
	var fields []string
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields = slices.AppendSeq(fields[:0], strings.FieldsSeq(line))
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "circuit":
			if len(fields) != 2 {
				return nil, errAt(lineNo, "circuit takes exactly one name")
			}
			if named {
				return nil, errAt(lineNo, "duplicate circuit directive")
			}
			named = true
			// Rebuild with the right name only if nothing added yet;
			// the builder name is cosmetic, so just remember it.
			name = fields[1]
		case "input":
			if len(fields) < 2 {
				return nil, errAt(lineNo, "input needs at least one net name")
			}
			for _, n := range fields[1:] {
				b.Input(n)
			}
		case "output":
			if len(fields) < 2 {
				return nil, errAt(lineNo, "output needs at least one net name")
			}
			for _, n := range fields[1:] {
				b.Output(n)
			}
		case "gate":
			if len(fields) < 5 {
				return nil, errAt(lineNo, "gate needs: gate <name> <KIND> <out> <in...>")
			}
			kind, ok := cellib.KindByName(fields[2])
			if !ok {
				return nil, errAt(lineNo, "unknown cell kind %q", fields[2])
			}
			b.AddGate(fields[1], kind, fields[3], fields[4:]...)
		case "wirecap":
			if len(fields) != 3 {
				return nil, errAt(lineNo, "wirecap needs: wirecap <net> <pF>")
			}
			c, err := parseFinite(fields[2])
			if err != nil {
				return nil, errAt(lineNo, "bad capacitance %q", fields[2])
			}
			b.SetWireCap(fields[1], c)
		case "vt":
			if len(fields) != 4 {
				return nil, errAt(lineNo, "vt needs: vt <gate> <pin> <volts>")
			}
			pin, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, errAt(lineNo, "bad pin index %q", fields[2])
			}
			v, err := parseFinite(fields[3])
			if err != nil {
				return nil, errAt(lineNo, "bad threshold %q", fields[3])
			}
			b.SetPinVT(fields[1], pin, v)
		default:
			return nil, errAt(lineNo, "unknown directive %q", fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	ckt, err := b.Build()
	if err != nil {
		return nil, err
	}
	ckt.Name = name
	return ckt, nil
}

// WriteCircuit serializes a circuit in the netlist format; parsing the
// output reproduces an equivalent circuit.
func WriteCircuit(w io.Writer, ckt *netlist.Circuit) error {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %s\n", ckt.Name)
	if len(ckt.Inputs) > 0 {
		b.WriteString("input")
		for _, in := range ckt.Inputs {
			b.WriteByte(' ')
			b.WriteString(in.Name)
		}
		b.WriteByte('\n')
	}
	if len(ckt.Outputs) > 0 {
		b.WriteString("output")
		for _, o := range ckt.Outputs {
			b.WriteByte(' ')
			b.WriteString(o.Name)
		}
		b.WriteByte('\n')
	}
	for _, g := range ckt.Gates {
		fmt.Fprintf(&b, "gate %s %s %s", g.Name, g.Cell.Kind, g.Output.Name)
		for _, p := range g.Inputs {
			b.WriteByte(' ')
			b.WriteString(p.Net.Name)
		}
		b.WriteByte('\n')
		for i, p := range g.Inputs {
			if p.VT != g.Cell.Pins[i].VT {
				fmt.Fprintf(&b, "vt %s %d %g\n", g.Name, i, p.VT)
			}
		}
	}
	for _, n := range ckt.Nets {
		if n.WireCap != 0 {
			fmt.Fprintf(&b, "wirecap %s %g\n", n.Name, n.WireCap)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ParseStimulus reads the stimulus format.
func ParseStimulus(r io.Reader) (sim.Stimulus, error) {
	scanner := bufio.NewScanner(r)
	st := sim.Stimulus{}
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "init":
			if len(fields) != 3 {
				return nil, errAt(lineNo, "init needs: init <input> <0|1>")
			}
			v, err := parseBit(fields[2])
			if err != nil {
				return nil, errAt(lineNo, "%v", err)
			}
			w := st[fields[1]]
			w.Init = v
			st[fields[1]] = w
		case "edge":
			if len(fields) != 4 && len(fields) != 5 {
				return nil, errAt(lineNo, "edge needs: edge <input> <ns> <rise|fall> [slew]")
			}
			t, err := parseFinite(fields[2])
			if err != nil {
				return nil, errAt(lineNo, "bad time %q", fields[2])
			}
			var rising bool
			switch fields[3] {
			case "rise", "r", "1":
				rising = true
			case "fall", "f", "0":
				rising = false
			default:
				return nil, errAt(lineNo, "bad direction %q (want rise|fall)", fields[3])
			}
			slew := 0.0
			if len(fields) == 5 {
				slew, err = parseFinite(fields[4])
				if err != nil {
					return nil, errAt(lineNo, "bad slew %q", fields[4])
				}
			}
			if slew <= 0 {
				slew = 0.3
			}
			w := st[fields[1]]
			w.Edges = append(w.Edges, sim.InputEdge{Time: t, Rising: rising, Slew: slew})
			st[fields[1]] = w
		default:
			return nil, errAt(lineNo, "unknown directive %q", fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	// Edges must be time-ordered per input; sort to be forgiving of
	// hand-written files.
	for name, w := range st {
		sort.SliceStable(w.Edges, func(i, j int) bool { return w.Edges[i].Time < w.Edges[j].Time })
		st[name] = w
	}
	return st, nil
}

func parseBit(s string) (bool, error) {
	switch s {
	case "0":
		return false, nil
	case "1":
		return true, nil
	}
	return false, fmt.Errorf("bad level %q (want 0 or 1)", s)
}

// WriteStimulus serializes a stimulus; parsing the output reproduces it.
func WriteStimulus(w io.Writer, st sim.Stimulus) error {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		wave := st[n]
		// Always write the init line, even for the default 0: an edge-less
		// held-low input would otherwise serialize to nothing and vanish on
		// reparse.
		init := 0
		if wave.Init {
			init = 1
		}
		fmt.Fprintf(&b, "init %s %d\n", n, init)
		for _, e := range wave.Edges {
			dir := "fall"
			if e.Rising {
				dir = "rise"
			}
			fmt.Fprintf(&b, "edge %s %g %s %g\n", n, e.Time, dir, e.Slew)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
