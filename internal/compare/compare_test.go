package compare

import (
	"math"
	"strings"
	"testing"

	"halotis/internal/analog"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/sim"
	"halotis/internal/wave"
)

const vdd = cellib.Default06VDD

func TestMatchEdgesExact(t *testing.T) {
	a := []Edge{{1, true}, {2, false}, {3, true}}
	b := []Edge{{1.1, true}, {2.05, false}, {3.2, true}}
	pairs, errs := MatchEdges(a, b)
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(pairs))
	}
	if math.Abs(errs[0]-0.1) > 1e-12 {
		t.Errorf("err[0] = %g", errs[0])
	}
}

func TestMatchEdgesDirectionMismatch(t *testing.T) {
	a := []Edge{{1, true}}
	b := []Edge{{1.05, false}}
	pairs, _ := MatchEdges(a, b)
	if len(pairs) != 0 {
		t.Error("opposite-direction edges must not match")
	}
}

func TestMatchEdgesWindow(t *testing.T) {
	a := []Edge{{1, true}}
	b := []Edge{{1 + MatchWindow + 0.1, true}}
	pairs, _ := MatchEdges(a, b)
	if len(pairs) != 0 {
		t.Error("edges beyond the window must not match")
	}
}

func TestMatchEdgesExtraAnalogEdges(t *testing.T) {
	// Analog has a glitch the logic sim filtered: unmatched b edge.
	a := []Edge{{1, true}, {5, false}}
	b := []Edge{{1, true}, {2, false}, {2.5, true}, {5, false}}
	pairs, _ := MatchEdges(a, b)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d, want 2", len(pairs))
	}
}

func TestLogicEdgesIgnoresRunts(t *testing.T) {
	wf := wave.NewWaveform(vdd, 0)
	wf.Add(1, 1, true)    // full rise: one edge
	wf.Add(10, 5, false)  // runt fall truncated after 0.1 ns (dips to 4.9 V)
	wf.Add(10.1, 5, true) // back up: no half-swing crossing either way
	edges := LogicEdges(wf, vdd)
	if len(edges) != 1 || !edges[0].Rising {
		t.Errorf("edges = %v, want single rising", edges)
	}
}

// TestCompareInverterChain runs both engines on a chain and requires close
// agreement: same edge counts, sub-ns RMS error, matching settle state.
func TestCompareInverterChain(t *testing.T) {
	lib := cellib.Default06()
	ckt, err := circuits.InverterChain(lib, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Stimulus{"in": sim.InputWave{Edges: []sim.InputEdge{
		{Time: 1, Rising: true, Slew: 0.2},
		{Time: 4, Rising: false, Slew: 0.2},
	}}}
	lr, err := sim.NewEngine(ckt, sim.Options{Model: sim.DDM}).Run(st, 10)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := analog.Run(ckt, st, 10, analog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := CompareOutputs(lr, ar, 10)
	if s.TotalLogic != 2 || s.TotalAnalog != 2 {
		t.Errorf("edge counts logic=%d analog=%d, want 2/2", s.TotalLogic, s.TotalAnalog)
	}
	if s.TotalMatch != 2 {
		t.Errorf("matched = %d, want 2", s.TotalMatch)
	}
	if s.RMSError > 0.5 {
		t.Errorf("RMS error %g ns too large", s.RMSError)
	}
	if !s.SettleAll {
		t.Error("settle states disagree")
	}
	if got := s.MatchFraction(); got != 1 {
		t.Errorf("match fraction = %g, want 1", got)
	}
	out := s.Format()
	if !strings.Contains(out, "out") || !strings.Contains(out, "total:") {
		t.Errorf("Format output malformed:\n%s", out)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.MatchFraction() != 1 {
		t.Error("empty summary should report full match")
	}
}

func TestCompareNetSettleDisagree(t *testing.T) {
	wf := wave.NewWaveform(vdd, 0) // stays low
	tr := analogTraceHigh(t)
	nc := CompareNet("x", wf, tr, vdd, 5)
	if nc.SettleAgree {
		t.Error("settle states should disagree")
	}
}

// analogTraceHigh builds a trivial high trace through the public engine.
func analogTraceHigh(t *testing.T) *analog.Trace {
	t.Helper()
	lib := cellib.Default06()
	ckt, err := circuits.InverterChain(lib, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Input 0 -> output high.
	ar, err := analog.Run(ckt, sim.Stimulus{}, 5, analog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ar.Trace("out")
}
