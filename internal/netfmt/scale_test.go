package netfmt

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/circ"
	"halotis/internal/circuits"
	"halotis/internal/netlist"
)

// TestParseLongLines round-trips circuits with lines over a megabyte: a
// 130k-input inverter array in the native format (its input and output
// lists are one line each), and a 130k-input AND in .bench.
func TestParseLongLines(t *testing.T) {
	const n = 130_000
	names := make([]string, n)
	for i := range names {
		names[i] = "in" + strconv.Itoa(i)
	}
	b := netlist.NewBuilder("invarray", lib)
	for _, in := range names {
		b.Input(in)
	}
	for _, in := range names {
		b.AddGate("g_"+in, cellib.INV, "out_"+in, in)
		b.Output("out_" + in)
	}
	ckt := b.MustBuild()
	var text strings.Builder
	if err := WriteCircuit(&text, ckt); err != nil {
		t.Fatal(err)
	}
	longest := 0
	for line := range strings.Lines(text.String()) {
		longest = max(longest, len(line))
	}
	if longest <= 1<<20 {
		t.Fatalf("longest line is %d bytes; this test needs one over 1 MB", longest)
	}
	back, err := ParseCircuit(strings.NewReader(text.String()), lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Inputs) != n || len(back.Gates) != n {
		t.Fatalf("round trip: %d inputs, %d gates, want %d each", len(back.Inputs), len(back.Gates), n)
	}
	if circ.ContentHash(back) != circ.ContentHash(ckt) {
		t.Error("round trip changed the circuit's content hash")
	}

	var bench strings.Builder
	for _, in := range names {
		bench.WriteString("INPUT(" + in + ")\n")
	}
	bench.WriteString("OUTPUT(y)\ny = AND(" + strings.Join(names, ", ") + ")\n")
	wide, err := ParseBench(strings.NewReader(bench.String()), lib)
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]bool, n)
	for _, in := range names {
		vals[in] = in != "in77777"
	}
	got, err := wide.EvalBool(vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.Inputs) != n || got["y"] {
		t.Errorf("AND of %d inputs, one low: %d inputs parsed, y = %v", n, len(wide.Inputs), got["y"])
	}
}

// TestParseCompileAllocBudget bounds the write path's allocations per gate:
// parsing and compiling a 10k-gate random DAG, records come from slabs and
// each text line costs one string. The count is taken from
// runtime.MemStats, as testing.AllocsPerRun takes it; the repository keeps
// that helper for its zero-allocation pins, and this path is budgeted, not
// allocation-free.
func TestParseCompileAllocBudget(t *testing.T) {
	const gates = 10_000
	ckt, err := circuits.FamilyByName("random-dag").Build(lib, gates)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := WriteCircuit(&text, ckt); err != nil {
		t.Fatal(err)
	}
	src := text.String()
	parseCompile := func() {
		c, err := ParseCircuit(strings.NewReader(src), lib)
		if err != nil {
			t.Fatal(err)
		}
		circ.Compile(c)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	parseCompile() // warm-up
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		parseCompile()
	}
	runtime.ReadMemStats(&after)
	perGate := float64(after.Mallocs-before.Mallocs) / runs / gates
	if perGate > 3 {
		t.Errorf("parse+compile: %.2f allocations per gate, want <= 3", perGate)
	}
}
