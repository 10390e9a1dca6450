package netfmt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"halotis/internal/cellib"
	"halotis/internal/netlist"
	"halotis/internal/sim"
)

// Format identifies a netlist text format.
type Format int

const (
	// FormatAuto detects the format from the file extension: ".bench" is
	// ISCAS85, everything else is the native format.
	FormatAuto Format = iota
	// FormatNative is the line-oriented format of this package.
	FormatNative
	// FormatBench is the ISCAS85 .bench format.
	FormatBench
)

// FormatByName resolves a format flag value ("auto", "net", "bench").
func FormatByName(name string) (Format, bool) {
	switch strings.ToLower(name) {
	case "", "auto":
		return FormatAuto, true
	case "net", "native":
		return FormatNative, true
	case "bench", "iscas85":
		return FormatBench, true
	}
	return FormatAuto, false
}

// DetectFormat resolves FormatAuto using the path's extension.
func DetectFormat(path string, f Format) Format {
	if f != FormatAuto {
		return f
	}
	if strings.EqualFold(filepath.Ext(path), ".bench") {
		return FormatBench
	}
	return FormatNative
}

// SniffFormat resolves FormatAuto from netlist text itself, for sources
// with no file name (service uploads): the ISCAS85 .bench format is the
// one whose first significant line has parenthesized directives
// (INPUT(n)) or '=' assignments, neither of which the native format's
// directive words use. Keep this in sync with the two formats' grammars.
// It reads line by line and stops at the first line that decides.
//
//halotis:noalloc
func SniffFormat(text string) Format {
	for text != "" {
		line, rest, _ := strings.Cut(text, "\n")
		text = rest
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.ContainsAny(line, "=(") {
			return FormatBench
		}
		return FormatNative
	}
	return FormatNative
}

// ParseText parses netlist text from a source with no file name (service
// uploads): format is a FormatByName value, where "" or "auto" sniffs the
// text, and a non-empty name overrides the circuit's own. Replicas and the
// cluster router both parse uploads here, so the router's locally computed
// content hash matches the ID the replicas assign.
func ParseText(text, format string, lib *cellib.Library, name string) (*netlist.Circuit, error) {
	f, ok := FormatByName(format)
	if !ok {
		return nil, fmt.Errorf("unknown netlist format %q", format)
	}
	if f == FormatAuto {
		f = SniffFormat(text)
	}
	var ckt *netlist.Circuit
	var err error
	switch f {
	case FormatBench:
		ckt, err = ParseBench(strings.NewReader(text), lib)
	default:
		ckt, err = ParseCircuit(strings.NewReader(text), lib)
	}
	if err != nil {
		return nil, err
	}
	if name != "" {
		ckt.Name = name
	}
	return ckt, nil
}

// inFile stamps the named file onto an error produced while reading it, so
// multi-file diagnostics say which file went wrong: ParseErrors get their
// File field set (rendered as file:line), anything else (netlist builder
// validation, I/O) is wrapped with the path.
func inFile(err error, name string) error {
	var pe *ParseError
	if errors.As(err, &pe) {
		pe.File = name
		return err
	}
	return fmt.Errorf("%s: %w", name, err)
}

// ParseCircuitFile reads a netlist file in the given format (FormatAuto
// detects by extension); parse errors carry the file name.
func ParseCircuitFile(path string, f Format, lib *cellib.Library) (*netlist.Circuit, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var ckt *netlist.Circuit
	switch DetectFormat(path, f) {
	case FormatBench:
		ckt, err = ParseBench(r, lib)
		if err == nil {
			ckt.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
	default:
		ckt, err = ParseCircuit(r, lib)
	}
	if err != nil {
		return nil, inFile(err, path)
	}
	return ckt, nil
}

// ParseStimulusFile reads a stimulus file; parse errors carry the file name.
func ParseStimulusFile(path string) (sim.Stimulus, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	st, err := ParseStimulus(r)
	if err != nil {
		return nil, inFile(err, path)
	}
	return st, nil
}
