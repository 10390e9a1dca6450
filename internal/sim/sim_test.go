package sim

import (
	"math"
	"math/rand"
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/delay"
	"halotis/internal/netlist"
)

var lib = cellib.Default06()

const vdd = cellib.Default06VDD

// invChain builds a chain of n inverters: in -> w0 -> w1 ... -> out.
func invChain(t testing.TB, n int) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("chain", lib)
	b.Input("in")
	prev := "in"
	for i := 0; i < n; i++ {
		out := netName(i, n)
		b.AddGate(gateName(i), cellib.INV, out, prev)
		prev = out
	}
	b.Output(prev)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return c
}

func netName(i, n int) string {
	if i == n-1 {
		return "out"
	}
	return "w" + string(rune('a'+i))
}

func gateName(i int) string { return "g" + string(rune('a'+i)) }

// pulse returns a stimulus driving one input with a single positive pulse.
func pulse(name string, t0, width, slew float64) Stimulus {
	return Stimulus{name: InputWave{Init: false, Edges: []InputEdge{
		{Time: t0, Rising: true, Slew: slew},
		{Time: t0 + width, Rising: false, Slew: slew},
	}}}
}

func run(t testing.TB, ckt *netlist.Circuit, st Stimulus, tEnd float64, m Model) *Result {
	t.Helper()
	res, err := NewEngine(ckt, Options{Model: m}).Run(st, tEnd)
	if err != nil {
		t.Fatalf("run (%v): %v", m, err)
	}
	return res
}

func TestInverterStepResponse(t *testing.T) {
	ckt := invChain(t, 1)
	st := Stimulus{"in": InputWave{Init: false, Edges: []InputEdge{{Time: 2, Rising: true, Slew: 0.4}}}}
	res := run(t, ckt, st, 50, DDM)

	out := res.Waveform("out")
	if out.VInit != vdd {
		t.Fatalf("out initial = %g, want VDD (inverter of 0)", out.VInit)
	}
	if out.Len() != 1 {
		t.Fatalf("out transitions = %d, want 1", out.Len())
	}
	tr := out.Transitions()[0]
	if tr.Rising {
		t.Error("output edge should fall")
	}
	// Event at VT=2.5 crossing of the input ramp: 2 + 0.4*(2.5/5) = 2.2.
	// Then the conventional fall delay (first transition: no degradation).
	pp := lib.Cell(cellib.INV).Pins[0]
	cl := ckt.NetByName("out").Load()
	want := 2.2 + delay.Conventional(pp.Fall, cl, 0.4).Tp
	if math.Abs(tr.Start-want) > 1e-9 {
		t.Errorf("fall start = %g, want %g", tr.Start, want)
	}
	wantSlew := pp.Fall.Slew(cl, 0.4)
	if math.Abs(tr.Slew-wantSlew) > 1e-9 {
		t.Errorf("fall slew = %g, want %g", tr.Slew, wantSlew)
	}
	if got := res.OutputLogic(50, vdd/2)["out"]; got {
		t.Error("settled output should be 0")
	}
}

func TestChainSettlesToBooleanSolution(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		ckt := invChain(t, n)
		st := Stimulus{"in": InputWave{Init: false, Edges: []InputEdge{{Time: 1, Rising: true, Slew: 0.3}}}}
		for _, m := range []Model{DDM, CDM} {
			res := run(t, ckt, st, 100, m)
			want := n%2 == 1 // odd chain inverts the final 1
			if got := res.OutputLogic(100, vdd/2)["out"]; got != !want == false && got == want {
				// settled value of chain(1) = !1 if odd
			}
			wantOut := (n % 2) == 0 // even number of inversions keeps 1
			if got := res.OutputLogic(100, vdd/2)["out"]; got != wantOut {
				t.Errorf("n=%d %v: out = %v, want %v", n, m, got, wantOut)
			}
		}
	}
}

func TestWaveformInvariantsAfterRun(t *testing.T) {
	ckt := invChain(t, 6)
	st := Stimulus{"in": InputWave{Init: false, Edges: []InputEdge{
		{Time: 1, Rising: true, Slew: 0.3},
		{Time: 1.7, Rising: false, Slew: 0.3},
		{Time: 2.1, Rising: true, Slew: 0.3},
		{Time: 6, Rising: false, Slew: 0.3},
	}}}
	for _, m := range []Model{DDM, CDM} {
		res := run(t, ckt, st, 100, m)
		for _, n := range ckt.Nets {
			if err := res.Waveform(n.Name).Validate(); err != nil {
				t.Errorf("%v: net %s: %v", m, n.Name, err)
			}
		}
	}
}

// startWidth returns the time between the first two transition starts on a
// waveform — the pulse width as the DDM theory measures it.
func startWidth(t *testing.T, r *Result, net string) float64 {
	t.Helper()
	trs := r.Waveform(net).Transitions()
	if len(trs) != 2 {
		t.Fatalf("net %s transitions = %d, want 2 (%v)", net, len(trs), trs)
	}
	return trs[1].Start - trs[0].Start
}

func TestDDMShrinksPulse(t *testing.T) {
	ckt := invChain(t, 1)
	width := 0.32
	ddm := run(t, ckt, pulse("in", 2, width, 0.12), 50, DDM)
	cdm := run(t, ckt, pulse("in", 2, width, 0.12), 50, CDM)
	wD := startWidth(t, ddm, "out")
	wC := startWidth(t, cdm, "out")
	if wD >= width {
		t.Errorf("DDM output pulse width %g not narrower than input %g", wD, width)
	}
	if wD >= wC {
		t.Errorf("DDM pulse %g should be narrower than CDM pulse %g", wD, wC)
	}
	if ddm.Stats.DegradedTransitions == 0 {
		t.Error("expected a degraded transition in stats")
	}
	// Both models still deliver a half-swing pulse for this width.
	if ps := ddm.Waveform("out").Pulses(vdd / 2); len(ps) != 1 {
		t.Errorf("DDM half-swing pulses = %d, want 1", len(ps))
	}
}

func TestDDMFiltersVeryNarrowPulse(t *testing.T) {
	// A pulse narrower than the gate's tp+T0 collapses entirely under
	// DDM: the first-stage output is a zero-width sliver, its pending
	// receiver event is deleted (a paper "filtered event"), and the
	// second stage never switches.
	ckt := invChain(t, 2)
	res := run(t, ckt, pulse("in", 2, 0.10, 0.12), 50, DDM)
	if got := res.Waveform("out").Len(); got != 0 {
		t.Errorf("second-stage transitions = %d, want 0 (filtered)", got)
	}
	if cs := res.Waveform("wa").Crossings(vdd / 2); len(cs) != 0 {
		t.Errorf("first-stage sliver crossed half swing: %v", cs)
	}
	if res.Stats.FullyDegraded == 0 {
		t.Error("expected FullyDegraded in stats")
	}
	if res.Stats.EventsFiltered == 0 {
		t.Error("expected a deleted (filtered) event in stats")
	}
	// Under CDM the same pulse produces a full-swing first-stage pulse
	// and reaches the output net (attenuated only by ramp truncation).
	res2 := run(t, ckt, pulse("in", 2, 0.10, 0.12), 50, CDM)
	if ps := res2.Waveform("wa").Pulses(vdd / 2); len(ps) != 1 {
		t.Errorf("CDM first-stage pulses = %d, want 1", len(ps))
	}
	if res2.Waveform("out").Len() == 0 {
		t.Error("CDM should emit output transitions for the narrow pulse")
	}
}

func TestDDMPulseTrainDies(t *testing.T) {
	// Feed a marginal pulse through a long chain: DDM must kill it at
	// some stage; CDM must deliver it to the end.
	n := 8
	ckt := invChain(t, n)
	st := pulse("in", 2, 0.22, 0.12)
	ddm := run(t, ckt, st, 100, DDM)
	cdm := run(t, ckt, st, 100, CDM)
	if ps := cdm.Waveform("out").Pulses(vdd / 2); len(ps) != 1 {
		t.Fatalf("CDM end-of-chain pulses = %d, want 1", len(ps))
	}
	if ps := ddm.Waveform("out").Pulses(vdd / 2); len(ps) != 0 {
		t.Errorf("DDM end-of-chain pulses = %d, want 0 (progressively degraded)", len(ps))
	}
	if ddm.Stats.Transitions >= cdm.Stats.Transitions {
		t.Errorf("DDM transitions %d should be fewer than CDM %d",
			ddm.Stats.Transitions, cdm.Stats.Transitions)
	}
}

func TestPerInputThresholdSelectiveFiltering(t *testing.T) {
	// One net drives two inverters with different thresholds. A partial
	// pulse that peaks between the two VTs propagates into the low-VT
	// gate only — the key behaviour conventional inertial models cannot
	// express (paper Fig. 1).
	b := netlist.NewBuilder("fig1", lib)
	b.Input("in")
	b.AddGate("g0", cellib.INV, "n", "in")
	b.AddGate("g1", cellib.INV, "out1", "n")
	b.AddGate("g2", cellib.INV, "out2", "n")
	b.SetPinVT("g1", 0, 1.0) // low threshold: sees partial pulses
	b.SetPinVT("g2", 0, 4.0) // high threshold: filters them
	b.Output("out1")
	b.Output("out2")
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// in: 0 -> brief 1 pulse. g0 output n: 1 -> partial fall pulse. With
	// width tuned so the n runt dips below 1.0 V but not below... note n
	// falls from 5: dipping *below* 4.0 V triggers g2 (falling crossing of
	// VT=4), dipping below 1.0 triggers g1. So the runt that only reaches
	// 2 V fires g2 (crossed 4.0 downward) but not g1 (never reached 1.0):
	// high-VT receiver sees it, low-VT receiver filters it.
	res := run(t, ckt, pulse("in", 2, 0.16, 0.12), 60, DDM)
	n := res.Waveform("n")
	if n.Len() < 2 {
		t.Fatalf("expected a runt pulse on n, got %d transitions", n.Len())
	}
	min := vdd
	for _, tr := range n.Transitions() {
		if v := tr.VEnd(); v < min {
			min = v
		}
	}
	if min >= 4.0 || min <= 1.0 {
		t.Skipf("runt depth %g outside the selective band; tune pulse width", min)
	}
	if got := res.Waveform("out2").Len(); got == 0 {
		t.Error("high-VT receiver g2 should respond to the runt")
	}
	if got := res.Waveform("out1").Len(); got != 0 {
		t.Errorf("low-VT receiver g1 should filter the runt, got %d transitions", got)
	}
}

func TestNANDInputCollisionSingleTransition(t *testing.T) {
	b := netlist.NewBuilder("nand", lib)
	b.Input("a")
	b.Input("b")
	b.AddGate("g", cellib.NAND2, "out", "a", "b")
	b.Output("out")
	ckt := b.MustBuild()
	// Both inputs rise simultaneously: output falls exactly once.
	st := Stimulus{
		"a": InputWave{Edges: []InputEdge{{Time: 1, Rising: true, Slew: 0.3}}},
		"b": InputWave{Edges: []InputEdge{{Time: 1, Rising: true, Slew: 0.3}}},
	}
	res := run(t, ckt, st, 50, DDM)
	if got := res.Waveform("out").Len(); got != 1 {
		t.Errorf("out transitions = %d, want 1", got)
	}
	if res.OutputLogic(50, vdd/2)["out"] {
		t.Error("NAND(1,1) must settle low")
	}
}

func TestNANDStaticHazardGlitch(t *testing.T) {
	// a=1->0 and b=0->1 staggered so the NAND momentarily sees (1,1):
	// classic static-1 hazard. The engine must emit the glitch (CDM) and
	// degrade it (DDM).
	b := netlist.NewBuilder("hazard", lib)
	b.Input("a")
	b.Input("b")
	b.AddGate("g", cellib.NAND2, "out", "a", "b")
	b.Output("out")
	ckt := b.MustBuild()
	st := Stimulus{
		"a": InputWave{Init: true, Edges: []InputEdge{{Time: 2.4, Rising: false, Slew: 0.3}}},
		"b": InputWave{Init: false, Edges: []InputEdge{{Time: 2.0, Rising: true, Slew: 0.3}}},
	}
	cdm := run(t, ckt, st, 50, CDM)
	if got := cdm.Waveform("out").Len(); got != 2 {
		t.Fatalf("CDM out transitions = %d, want 2 (glitch)", got)
	}
	ddm := run(t, ckt, st, 50, DDM)
	// DDM still emits the transitions but the pulse is narrower.
	wCDM := cdm.Waveform("out").Transitions()
	wDDM := ddm.Waveform("out").Transitions()
	if len(wDDM) == 2 && len(wCDM) == 2 {
		cw := wCDM[1].Start - wCDM[0].Start
		dw := wDDM[1].Start - wDDM[0].Start
		if dw > cw+1e-9 {
			t.Errorf("DDM glitch width %g should not exceed CDM %g", dw, cw)
		}
	}
	for _, r := range []*Result{cdm, ddm} {
		if got := r.OutputLogic(50, vdd/2)["out"]; !got {
			t.Error("NAND(0,1) must settle high")
		}
	}
}

func TestStimulusValidation(t *testing.T) {
	ckt := invChain(t, 1)
	cases := []Stimulus{
		{"nope": InputWave{}}, // unknown input
		{"in": InputWave{Edges: []InputEdge{{Time: -1, Rising: true, Slew: 0.3}}}},
		{"in": InputWave{Edges: []InputEdge{{Time: 1, Rising: true, Slew: 0}}}},
		{"in": InputWave{Edges: []InputEdge{
			{Time: 2, Rising: true, Slew: 0.3}, {Time: 1, Rising: false, Slew: 0.3}}}},
	}
	for i, st := range cases {
		if _, err := NewEngine(ckt, Options{}).Run(st, 10); err == nil {
			t.Errorf("case %d: bad stimulus accepted", i)
		}
	}
}

func TestEmptyStimulusQuiescent(t *testing.T) {
	ckt := invChain(t, 3)
	res := run(t, ckt, Stimulus{}, 50, DDM)
	if res.Stats.Transitions != 0 || res.Stats.EventsProcessed != 0 {
		t.Errorf("quiescent circuit produced activity: %+v", res.Stats)
	}
	if got := res.OutputLogic(50, vdd/2)["out"]; !got {
		t.Error("3-inverter chain of 0 should output 1")
	}
}

func TestDeterminism(t *testing.T) {
	ckt := invChain(t, 5)
	st := Stimulus{"in": InputWave{Edges: []InputEdge{
		{Time: 1, Rising: true, Slew: 0.3},
		{Time: 1.6, Rising: false, Slew: 0.4},
		{Time: 2.9, Rising: true, Slew: 0.2},
	}}}
	a := run(t, ckt, st, 100, DDM)
	b := run(t, ckt, st, 100, DDM)
	if a.Stats != b.Stats {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	for _, n := range ckt.Nets {
		ta := a.Waveform(n.Name).Transitions()
		tb := b.Waveform(n.Name).Transitions()
		if len(ta) != len(tb) {
			t.Fatalf("net %s transition counts differ", n.Name)
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("net %s transition %d differs: %v vs %v", n.Name, i, ta[i], tb[i])
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	ckt := invChain(t, 4)
	res := run(t, ckt, pulse("in", 1, 0.5, 0.3), 100, DDM)
	s := res.Stats
	if s.EventsQueued < s.EventsProcessed+s.EventsFiltered {
		t.Errorf("queued %d < processed %d + filtered %d",
			s.EventsQueued, s.EventsProcessed, s.EventsFiltered)
	}
	if s.Evaluations != s.EventsProcessed {
		t.Errorf("evaluations %d != processed %d", s.Evaluations, s.EventsProcessed)
	}
}

func TestEventHorizonRespected(t *testing.T) {
	ckt := invChain(t, 1)
	st := Stimulus{"in": InputWave{Edges: []InputEdge{
		{Time: 1, Rising: true, Slew: 0.3},
		{Time: 90, Rising: false, Slew: 0.3},
	}}}
	res := run(t, ckt, st, 10, DDM) // horizon before the second edge fires
	if got := res.Waveform("out").Len(); got != 1 {
		t.Errorf("out transitions = %d, want 1 (second edge beyond horizon)", got)
	}
}

// randTree builds a random NAND/NOR/INV tree circuit with the given number
// of primary inputs, for settled-logic property testing.
func randTree(t testing.TB, rng *rand.Rand, inputs int) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("rand", lib)
	var avail []string
	for i := 0; i < inputs; i++ {
		name := "i" + string(rune('0'+i))
		b.Input(name)
		avail = append(avail, name)
	}
	id := 0
	newNet := func() string {
		id++
		return "n" + itoa(id)
	}
	for len(avail) > 1 {
		kindChoice := []cellib.Kind{cellib.NAND2, cellib.NOR2, cellib.INV, cellib.NAND2}
		k := kindChoice[rng.Intn(len(kindChoice))]
		out := newNet()
		if k.NumInputs() == 1 || len(avail) < 2 {
			k = cellib.INV
			j := rng.Intn(len(avail))
			b.AddGate("g"+out, k, out, avail[j])
			avail[j] = out
		} else {
			j := rng.Intn(len(avail))
			a := avail[j]
			avail = append(avail[:j], avail[j+1:]...)
			j2 := rng.Intn(len(avail))
			b.AddGate("g"+out, k, out, a, avail[j2])
			avail[j2] = out
		}
	}
	b.Output(avail[0])
	return b.MustBuild()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{byte('0' + n%10)}, buf...)
		n /= 10
	}
	return string(buf)
}

// TestSettledLogicProperty drives random trees with random vector changes
// and checks that both models settle every primary output to the zero-delay
// boolean solution.
func TestSettledLogicProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		inputs := 2 + rng.Intn(5)
		ckt := randTree(t, rng, inputs)
		st := Stimulus{}
		final := map[string]bool{}
		for _, in := range ckt.Inputs {
			init := rng.Intn(2) == 0
			target := rng.Intn(2) == 0
			w := InputWave{Init: init}
			if target != init {
				w.Edges = []InputEdge{{Time: 1 + rng.Float64(), Rising: target, Slew: 0.2 + rng.Float64()*0.4}}
			}
			st[in.Name] = w
			final[in.Name] = target
		}
		want, err := ckt.EvalBool(final)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Model{DDM, CDM} {
			res := run(t, ckt, st, 200, m)
			got := res.OutputLogic(200, vdd/2)
			for name, v := range want {
				if got[name] != v {
					t.Errorf("trial %d %v: output %s = %v, want %v", trial, m, name, got[name], v)
				}
			}
			for _, n := range ckt.Nets {
				if err := res.Waveform(n.Name).Validate(); err != nil {
					t.Errorf("trial %d %v: %v", trial, m, err)
				}
			}
		}
	}
}

func TestActivityReporting(t *testing.T) {
	ckt := invChain(t, 2)
	res := run(t, ckt, pulse("in", 1, 3, 0.3), 100, DDM)
	acts := res.Activity()
	if len(acts) != len(ckt.Nets) {
		t.Fatalf("activity entries = %d, want %d", len(acts), len(ckt.Nets))
	}
	totalT, totalE := res.TotalActivity()
	var sumT int
	var sumE float64
	for _, a := range acts {
		sumT += a.Transitions
		sumE += a.EnergyNorm
	}
	if sumT != totalT || math.Abs(sumE-totalE) > 1e-12 {
		t.Error("TotalActivity disagrees with Activity sum")
	}
	if totalT < 6 { // 2 input edges + 2 per stage
		t.Errorf("total transitions = %d, want >= 6", totalT)
	}
}

func TestModelString(t *testing.T) {
	if DDM.String() != "HALOTIS-DDM" || CDM.String() != "HALOTIS-CDM" {
		t.Error("model names wrong")
	}
	if Model(9).String() == "" {
		t.Error("unknown model name empty")
	}
}

func TestWaveformUnknownNet(t *testing.T) {
	ckt := invChain(t, 1)
	res := run(t, ckt, Stimulus{}, 10, DDM)
	if res.Waveform("ghost") != nil {
		t.Error("unknown net should yield nil waveform")
	}
}
