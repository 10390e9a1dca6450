package netfmt

import (
	"strings"
	"testing"
)

func TestSniffFormat(t *testing.T) {
	cases := []struct {
		name string
		text string
		want Format
	}{
		{"bench", C17Bench(), FormatBench},
		{"bench assignment first", "# c\n\nG1 = NAND(a, b)\n", FormatBench},
		{"native", "circuit x\ninput a b\noutput y\ngate g1 NAND2 y a b\n", FormatNative},
		{"comments only", "# nothing here\n\n", FormatNative},
		{"empty", "", FormatNative},
		{"leading blank and comment lines", "\n  \n# a\n\t# b\n\ncircuit x\n", FormatNative},
		{"bench line after comments", "# c17\n# iscas\nINPUT(1)\n", FormatBench},
		{"native first line decides", "circuit x\nG1 = NAND(a, b)\n", FormatNative},
		{"crlf bench", "# c\r\n\r\nINPUT(1)\r\nOUTPUT(2)\r\n", FormatBench},
		{"crlf native", "# c\r\ncircuit x\r\n", FormatNative},
		{"no trailing newline bench", "# c\nG1 = NAND(a, b)", FormatBench},
		{"no trailing newline native", "circuit x", FormatNative},
		{"single newline", "\n", FormatNative},
		{"whitespace only", " \t\r\n\n", FormatNative},
	}
	for _, c := range cases {
		if got := SniffFormat(c.text); got != c.want {
			t.Errorf("%s: SniffFormat = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestParseText(t *testing.T) {
	cases := []struct {
		name, text, format, rename string
		wantName                   string
		wantGates                  int
		wantErr                    string
	}{
		{name: "auto-sniffed bench", text: C17Bench(), wantName: "bench", wantGates: 6},
		{name: "auto-sniffed native", text: sample, format: "auto", wantName: "demo", wantGates: 2},
		{name: "explicit bench", text: C17Bench(), format: "iscas85", wantName: "bench", wantGates: 6},
		{name: "explicit format is not sniffed", text: C17Bench(), format: "net", wantErr: `unknown directive "INPUT(1)"`},
		{name: "unknown format", text: sample, format: "verilog", wantErr: `unknown netlist format "verilog"`},
		{name: "name override", text: sample, rename: "renamed", wantName: "renamed", wantGates: 2},
	}
	for _, c := range cases {
		ckt, err := ParseText(c.text, c.format, lib, c.rename)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if ckt.Name != c.wantName || len(ckt.Gates) != c.wantGates {
			t.Errorf("%s: got circuit %q with %d gates, want %q with %d", c.name, ckt.Name, len(ckt.Gates), c.wantName, c.wantGates)
		}
	}
}

// TestSniffFormatAllocs pins that sniffing a large upload allocates
// nothing, whether the deciding line comes first or after many comments.
func TestSniffFormatAllocs(t *testing.T) {
	body := strings.Repeat("G1 = NAND(a, b)\n", 50_000)
	for _, text := range []string{body, strings.Repeat("# comment\n\n", 50_000) + body} {
		if got := SniffFormat(text); got != FormatBench {
			t.Fatalf("SniffFormat = %v, want bench", got)
		}
		//halotis:pins SniffFormat
		if allocs := testing.AllocsPerRun(20, func() { SniffFormat(text) }); allocs != 0 {
			t.Errorf("SniffFormat allocs = %g, want 0", allocs)
		}
	}
}
