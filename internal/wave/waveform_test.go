package wave

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewWaveformClampsInit(t *testing.T) {
	w := NewWaveform(vdd, 9)
	if w.VInit != vdd {
		t.Errorf("VInit = %g, want clamped to %g", w.VInit, vdd)
	}
	w2 := NewWaveform(vdd, -3)
	if w2.VInit != 0 {
		t.Errorf("VInit = %g, want clamped to 0", w2.VInit)
	}
}

func TestNewWaveformPanicsOnBadVDD(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for VDD <= 0")
		}
	}()
	NewWaveform(0, 0)
}

func TestWaveformAddAndVoltage(t *testing.T) {
	w := NewWaveform(vdd, 0)
	w.Add(1, 1, true)  // full rise 1..2 ns
	w.Add(5, 1, false) // full fall 5..6 ns
	cases := []struct{ t, want float64 }{
		{0, 0},
		{1.5, vdd / 2},
		{3, vdd},
		{5.5, vdd / 2},
		{8, 0},
	}
	for _, c := range cases {
		if got := w.V(c.t); !almostEq(got, c.want) {
			t.Errorf("V(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if err := w.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestWaveformTruncationCreatesRunt(t *testing.T) {
	w := NewWaveform(vdd, 0)
	w.Add(0, 5, true)  // slow rise, 1 V/ns
	w.Add(2, 5, false) // truncates at 2 V — runt pulse
	if got := w.V(2); !almostEq(got, 2) {
		t.Errorf("peak = %g, want 2", got)
	}
	if got := w.V(10); !almostEq(got, 0) {
		t.Errorf("settled = %g, want 0", got)
	}
	first := w.Transitions()[0]
	if first.FullSwing() {
		t.Error("truncated ramp reported full swing")
	}
	// The runt never crosses 2.5 V: a receiver with VT=2.5 sees nothing.
	if cs := w.Crossings(2.5); len(cs) != 0 {
		t.Errorf("runt pulse crossed 2.5 V: %v", cs)
	}
	// But a receiver with VT=1.0 sees a full pulse.
	cs := w.Crossings(1.0)
	if len(cs) != 2 || !cs[0].Rising || cs[1].Rising {
		t.Fatalf("VT=1.0 crossings = %v, want rise+fall", cs)
	}
	if !almostEq(cs[0].Time, 1) || !almostEq(cs[1].Time, 3) {
		t.Errorf("crossing times = %g,%g want 1,3", cs[0].Time, cs[1].Time)
	}
	if err := w.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestWaveformAddPanicsOnTimeTravel(t *testing.T) {
	w := NewWaveform(vdd, 0)
	w.Add(5, 1, true)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-order transition")
		}
	}()
	w.Add(4, 1, false)
}

func TestWaveformAddPanicsOnBadSlew(t *testing.T) {
	w := NewWaveform(vdd, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive slew")
		}
	}()
	w.Add(0, 0, true)
}

func TestWaveformZeroWidthPulse(t *testing.T) {
	// Two transitions at the same instant: the first contributes nothing.
	w := NewWaveform(vdd, 0)
	w.Add(3, 1, true)
	w.Add(3, 1, false)
	if got := w.V(10); !almostEq(got, 0) {
		t.Errorf("settled = %g, want 0", got)
	}
	if cs := w.Crossings(2.5); len(cs) != 0 {
		t.Errorf("zero-width pulse produced crossings: %v", cs)
	}
	if err := w.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLogicAt(t *testing.T) {
	w := NewWaveform(vdd, 0)
	w.Add(1, 1, true)
	w.Add(5, 1, false)
	vt := vdd / 2
	cases := []struct {
		t    float64
		want bool
	}{
		{0, false},
		{2, true},
		{5.6, false},
	}
	for _, c := range cases {
		if got := w.LogicAt(c.t, vt); got != c.want {
			t.Errorf("LogicAt(%g) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestPulses(t *testing.T) {
	w := NewWaveform(vdd, 0)
	w.Add(0, 1, true)
	w.Add(3, 1, false)
	w.Add(6, 1, true)
	w.Add(10, 1, false)
	ps := w.Pulses(vdd / 2)
	if len(ps) != 3 { // high 0..3ish, low 3..6ish, high 6..10ish
		t.Fatalf("got %d pulses, want 3: %v", len(ps), ps)
	}
	if !ps[0].High || ps[1].High || !ps[2].High {
		t.Errorf("pulse polarity wrong: %v", ps)
	}
	if w1 := ps[0].Width(); !almostEq(w1, 3) {
		t.Errorf("first pulse width = %g, want 3", w1)
	}
}

func TestSwitchingEnergyNorm(t *testing.T) {
	w := NewWaveform(vdd, 0)
	w.Add(0, 1, true)   // full swing: contributes 1
	w.Add(5, 1, false)  // full swing: contributes 1
	w.Add(10, 5, true)  // truncated at 12: 2 V swing -> (0.4)^2
	w.Add(12, 5, false) // falls back 2 V -> (0.4)^2
	got := w.SwitchingEnergyNorm()
	want := 1 + 1 + 0.16 + 0.16
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("energy = %g, want %g", got, want)
	}
	if n := w.FullSwingCount(); n != 3 { // last fall from 2 V reaches 0
		t.Errorf("FullSwingCount = %d, want 3", n)
	}
}

func TestFinalV(t *testing.T) {
	w := NewWaveform(vdd, vdd)
	if got := w.FinalV(); got != vdd {
		t.Errorf("empty FinalV = %g, want %g", got, vdd)
	}
	w.Add(0, 1, false)
	if got := w.FinalV(); !almostEq(got, 0) {
		t.Errorf("FinalV = %g, want 0", got)
	}
}

func TestSample(t *testing.T) {
	w := NewWaveform(vdd, 0)
	w.Add(0, 2, true)
	times, volts := w.Sample(0, 2, 4)
	if len(times) != 5 || len(volts) != 5 {
		t.Fatalf("sample sizes = %d,%d want 5,5", len(times), len(volts))
	}
	if !almostEq(volts[2], vdd/2) {
		t.Errorf("midpoint sample = %g, want %g", volts[2], vdd/2)
	}
	if ts, vs := w.Sample(2, 0, 4); ts != nil || vs != nil {
		t.Error("inverted interval should return nil")
	}
	if ts, vs := w.Sample(0, 1, 0); ts != nil || vs != nil {
		t.Error("n<1 should return nil")
	}
}

// buildRandomWaveform appends n random transitions with non-decreasing start
// times and returns the waveform.
func buildRandomWaveform(rng *rand.Rand, n int) *Waveform {
	w := NewWaveform(vdd, float64(rng.Intn(2))*vdd)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.Float64() * 2
		w.Add(t, 0.05+rng.Float64()*3, rng.Intn(2) == 0)
	}
	return w
}

// Property: any waveform built through Add satisfies Validate and stays
// within the rails everywhere.
func TestWaveformInvariantsProperty(t *testing.T) {
	f := func(seed int64, nQ uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := buildRandomWaveform(rng, int(nQ)%40+1)
		if err := w.Validate(); err != nil {
			t.Logf("validate failed: %v", err)
			return false
		}
		for i := 0; i <= 200; i++ {
			v := w.V(float64(i) * 0.5)
			if v < -1e-9 || v > vdd+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: crossings alternate direction for any threshold strictly between
// the rails — a waveform cannot cross the same threshold twice in the same
// direction without crossing back in between.
func TestCrossingsAlternateProperty(t *testing.T) {
	f := func(seed int64, nQ uint8, vtQ uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := buildRandomWaveform(rng, int(nQ)%40+1)
		vt := 0.1 + (vdd-0.2)*float64(vtQ)/65535
		cs := w.Crossings(vt)
		for i := 1; i < len(cs); i++ {
			if cs[i].Rising == cs[i-1].Rising {
				return false
			}
			if cs[i].Time < cs[i-1].Time {
				return false
			}
		}
		// First crossing direction must leave the initial side.
		if len(cs) > 0 {
			startHigh := w.VInit > vt
			if cs[0].Rising == startHigh {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: LogicAt after all transitions settles to FinalV side.
func TestLogicSettlesProperty(t *testing.T) {
	f := func(seed int64, nQ uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := buildRandomWaveform(rng, int(nQ)%30+1)
		vt := vdd / 2
		final := w.FinalV()
		if math.Abs(final-vt) < 0.25 {
			return true // too close to threshold to assert
		}
		settled := w.Last().settleTime() + 1
		return w.LogicAt(settled, vt) == (final > vt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestResetRetainsCapacityAndClonesDetach(t *testing.T) {
	w := NewWaveform(5, 0)
	for i := 0; i < 8; i++ {
		w.Add(float64(i), 0.5, i%2 == 0)
	}
	snap := w.Clone()
	if snap.Len() != 8 {
		t.Fatalf("clone Len = %d, want 8", snap.Len())
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}

	capBefore := cap(w.ts)
	w.Reset(5)
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	if w.VInit != 5 {
		t.Errorf("VInit after Reset = %g, want 5", w.VInit)
	}
	if cap(w.ts) != capBefore {
		t.Errorf("capacity after Reset = %d, want %d", cap(w.ts), capBefore)
	}
	// Refill the original: the clone must be unaffected.
	for i := 0; i < 4; i++ {
		w.Add(float64(i)+10, 0.25, i%2 == 1)
	}
	if snap.Len() != 8 || snap.ts[0].Start != 0 || snap.ts[0].Slew != 0.5 {
		t.Error("clone mutated by Reset+Add on the original")
	}
	// Seq numbering restarts so reruns are bit-identical.
	if w.ts[0].Seq != 1 {
		t.Errorf("first Seq after Reset = %d, want 1", w.ts[0].Seq)
	}
	// Reset clamps the new initial level to the rails.
	w.Reset(9)
	if w.VInit != 5 {
		t.Errorf("VInit after out-of-rail Reset = %g, want clamped 5", w.VInit)
	}
}

func TestResetSteadyStateAllocs(t *testing.T) {
	w := NewWaveform(5, 0)
	fill := func() {
		w.Reset(0)
		for i := 0; i < 32; i++ {
			w.Add(float64(i), 0.5, i%2 == 0)
		}
	}
	fill()
	//halotis:pins Reset Add
	if allocs := testing.AllocsPerRun(50, fill); allocs != 0 {
		t.Errorf("steady-state Reset+Add allocs = %g, want 0", allocs)
	}
}

// TestSlabChunksAreIsolated checks the engine's slab storage: each
// waveform appends into its own chunk, one that outgrows its chunk moves to
// storage of its own without touching its neighbour, keeps that capacity
// across Reset, and clones detach from the slab.
func TestSlabChunksAreIsolated(t *testing.T) {
	const per = 2
	ws := NewSlab(5, 3, per)
	for i := range ws {
		ws[i].Reset(0)
		ws[i].Add(1, 0.5, true)
	}
	for i := 0; i < 3; i++ { // waveform 1 outgrows its chunk
		ws[1].Add(2+float64(i), 0.5, i%2 == 1)
	}
	for i := range ws {
		if err := ws[i].Validate(); err != nil {
			t.Fatalf("waveform %d invalid: %v", i, err)
		}
	}
	if ws[0].Len() != 1 || ws[2].Len() != 1 || ws[1].Len() != 4 {
		t.Fatalf("lengths %d/%d/%d, want 1/4/1", ws[0].Len(), ws[1].Len(), ws[2].Len())
	}
	if ws[2].ts[0].Start != 1 || !ws[2].ts[0].Rising {
		t.Error("overflowing waveform clobbered its neighbour's chunk")
	}
	grown := cap(ws[1].ts)
	if grown <= per {
		t.Fatalf("capacity %d after overflow, want > %d", grown, per)
	}

	snap := make([]Waveform, len(ws))
	for i := range ws {
		snap[i] = *ws[i].Clone()
	}
	ws[1].Reset(5)
	if cap(ws[1].ts) != grown {
		t.Errorf("capacity after Reset = %d, want the grown %d", cap(ws[1].ts), grown)
	}
	ws[1].Add(10, 0.5, false)
	if snap[1].Len() != 4 || snap[1].ts[0].Start != 1 || snap[1].VInit != 0 {
		t.Error("clone mutated by Reset+Add on the original")
	}
	for i := range snap {
		if err := snap[i].Validate(); err != nil {
			t.Errorf("clone %d invalid: %v", i, err)
		}
	}
}
