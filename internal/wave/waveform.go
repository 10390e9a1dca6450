package wave

import (
	"fmt"
	"math"
	"sort"
)

// Waveform is the full piecewise-linear history of one signal: an initial
// level followed by a time-ordered sequence of ramp transitions, each
// truncating its predecessor. Waveforms are append-only: the simulator never
// retracts an emitted transition, it only narrows pulses by truncation,
// which keeps the engine causal.
type Waveform struct {
	// VDD is the supply rail voltage shared by all transitions.
	VDD float64
	// VInit is the signal voltage before the first transition.
	VInit float64

	ts  []Transition
	seq int
}

// NewWaveform returns a waveform resting at vinit (clamped to the rails)
// under the given supply voltage.
func NewWaveform(vdd, vinit float64) *Waveform {
	if vdd <= 0 {
		panic(fmt.Sprintf("wave: non-positive VDD %g", vdd))
	}
	return &Waveform{VDD: vdd, VInit: clamp(vinit, 0, vdd)}
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// Reset re-arms the waveform at a new initial level, discarding all recorded
// transitions while retaining the transition storage capacity. It is the
// reuse path of the simulation engine: a waveform reset between runs appends
// transitions without reallocating once it has grown to a run's high-water
// mark. Any Transitions slice previously obtained from the waveform aliases
// storage that Reset will overwrite; detach (Clone) results that must
// survive.
//
//halotis:noalloc
func (w *Waveform) Reset(vinit float64) {
	w.VInit = clamp(vinit, 0, w.VDD)
	w.ts = w.ts[:0]
	w.seq = 0
}

// NewSlab returns n waveforms at rest at 0 V under supply vdd whose
// transition storage is carved from one shared slab, per slots each, in
// index order: waveform i appends into slab[i*per : (i+1)*per] until it
// outgrows that chunk, then grows by append into storage of its own
// and keeps it across Resets. One allocation serves every waveform, and
// neighbouring waveforms' latest transitions share cache lines. The
// simulation kernels keep one waveform per net this way.
func NewSlab(vdd float64, n, per int) []Waveform {
	if vdd <= 0 {
		panic(fmt.Sprintf("wave: non-positive VDD %g", vdd))
	}
	ws := make([]Waveform, n)
	ts := make([]Transition, n*per)
	for i := range ws {
		ws[i] = Waveform{VDD: vdd, ts: ts[i*per : i*per : (i+1)*per]}
	}
	return ws
}

// Clone returns a deep copy of the waveform with independent transition
// storage, safe to hold across a Reset of the original.
func (w *Waveform) Clone() *Waveform {
	c := &Waveform{VDD: w.VDD, VInit: w.VInit, seq: w.seq}
	if len(w.ts) > 0 {
		c.ts = make([]Transition, len(w.ts))
		copy(c.ts, w.ts)
	}
	return c
}

// Len returns the number of transitions recorded.
func (w *Waveform) Len() int { return len(w.ts) }

// Last returns the most recent transition, or nil if the waveform has none.
func (w *Waveform) Last() *Transition {
	if len(w.ts) == 0 {
		return nil
	}
	return &w.ts[len(w.ts)-1]
}

// Transitions returns the recorded transitions. The returned slice aliases
// the waveform's storage and must not be modified.
func (w *Waveform) Transitions() []Transition { return w.ts }

// V returns the waveform voltage at time t.
func (w *Waveform) V(t float64) float64 {
	if len(w.ts) == 0 || t < w.ts[0].Start {
		return w.VInit
	}
	// Binary search for the last transition starting at or before t.
	i := sort.Search(len(w.ts), func(i int) bool { return w.ts[i].Start > t }) - 1
	return w.ts[i].V(t)
}

// Add appends a ramp beginning at time start with the given direction and
// full-swing slew. The starting voltage is taken from the waveform itself
// (the voltage the signal has reached at start), truncating any in-flight
// ramp. It returns the appended transition. Storage grows by append only
// when the waveform is full; Reset keeps the capacity, so a reused waveform
// appends without allocating once it has reached its high-water mark.
//
// Add panics if start precedes the start of the last transition: the engine
// must clamp output times to keep per-signal transition starts
// non-decreasing.
//
//halotis:noalloc
func (w *Waveform) Add(start, slew float64, rising bool) *Transition {
	if slew <= 0 {
		panic(fmt.Sprintf("wave: non-positive slew %g", slew))
	}
	v0 := w.VInit
	if last := w.Last(); last != nil {
		if start < last.Start {
			panic(fmt.Sprintf("wave: transition at %.6g precedes previous at %.6g", start, last.Start))
		}
		last.End = start
		v0 = last.V(start)
	}
	w.seq++
	w.ts = append(w.ts, Transition{
		Start:  start,
		Slew:   slew,
		V0:     v0,
		Rising: rising,
		VDD:    w.VDD,
		End:    math.Inf(1),
		Seq:    w.seq,
	})
	return w.Last()
}

// Crossing describes one threshold crossing of a waveform.
type Crossing struct {
	// Time of the crossing in ns.
	Time float64
	// Rising is true for an upward crossing.
	Rising bool
	// Seq identifies the transition that produced the crossing.
	Seq int
}

// Crossings scans the whole waveform and returns every time it crosses the
// threshold vt, in time order. Unlike Transition.Crossing, this accounts for
// truncation, so it reports exactly the crossings a receiver with threshold
// vt actually observes. Used for analysis and waveform comparison.
func (w *Waveform) Crossings(vt float64) []Crossing {
	var out []Crossing
	for i := range w.ts {
		tr := &w.ts[i]
		if t, ok := tr.CrossingTruncated(vt); ok {
			out = append(out, Crossing{Time: t, Rising: tr.Rising, Seq: tr.Seq})
		}
	}
	return out
}

// LogicAt returns the boolean value of the waveform at time t for a receiver
// with threshold vt, resolving the start state from VInit. A waveform
// sitting exactly at vt reports its previous state (hysteresis-free
// waveforms never rest at vt in practice).
func (w *Waveform) LogicAt(t float64, vt float64) bool {
	state := w.VInit > vt
	for _, c := range w.Crossings(vt) {
		if c.Time > t {
			break
		}
		state = c.Rising
	}
	return state
}

// FinalV returns the voltage the waveform settles at after its last
// transition completes.
func (w *Waveform) FinalV() float64 {
	if last := w.Last(); last != nil {
		return last.VEnd()
	}
	return w.VInit
}

// Pulse describes a contiguous excursion of the waveform above (or below) a
// threshold.
type Pulse struct {
	// Start and End are the crossing times delimiting the pulse.
	Start, End float64
	// High is true when the pulse is an excursion above the threshold.
	High bool
}

// Width returns the pulse duration.
func (p Pulse) Width() float64 { return p.End - p.Start }

// Pulses pairs consecutive opposite crossings of vt into pulses. An
// unterminated final excursion is not reported.
func (w *Waveform) Pulses(vt float64) []Pulse {
	cs := w.Crossings(vt)
	var out []Pulse
	for i := 0; i+1 < len(cs); i++ {
		if cs[i].Rising != cs[i+1].Rising {
			out = append(out, Pulse{Start: cs[i].Time, End: cs[i+1].Time, High: cs[i].Rising})
		}
	}
	return out
}

// SwitchingEnergyNorm returns the normalized switching activity of the
// waveform: the sum over transitions of (achieved swing / VDD)^2. A full
// rail-to-rail transition contributes 1; degraded runt pulses contribute
// quadratically less, which is how the degradation model reduces estimated
// glitch power.
func (w *Waveform) SwitchingEnergyNorm() float64 {
	var e float64
	for i := range w.ts {
		s := w.ts[i].Swing() / w.VDD
		e += s * s
	}
	return e
}

// FullSwingCount returns how many transitions reached their target rail.
func (w *Waveform) FullSwingCount() int {
	n := 0
	for i := range w.ts {
		if w.ts[i].FullSwing() {
			n++
		}
	}
	return n
}

// Sample evaluates the waveform at n+1 uniform points spanning [t0, t1],
// returning the times and voltages. Used by the VCD/ASCII renderers and by
// logic-vs-analog comparison.
func (w *Waveform) Sample(t0, t1 float64, n int) (times, volts []float64) {
	if n < 1 || t1 < t0 {
		return nil, nil
	}
	times = make([]float64, n+1)
	volts = make([]float64, n+1)
	dt := (t1 - t0) / float64(n)
	for i := 0; i <= n; i++ {
		t := t0 + float64(i)*dt
		times[i] = t
		volts[i] = w.V(t)
	}
	return times, volts
}

// Validate checks the structural invariants of the waveform: transitions in
// non-decreasing start order, each truncated exactly at its successor's
// start, voltages within the rails.
func (w *Waveform) Validate() error {
	for i := range w.ts {
		tr := &w.ts[i]
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("transition %d: %w", i, err)
		}
		if tr.VDD != w.VDD {
			return fmt.Errorf("transition %d: VDD %.3g differs from waveform VDD %.3g", i, tr.VDD, w.VDD)
		}
		if i+1 < len(w.ts) {
			next := &w.ts[i+1]
			if next.Start < tr.Start {
				return fmt.Errorf("transition %d starts at %.4g before predecessor %.4g", i+1, next.Start, tr.Start)
			}
			if tr.End != next.Start {
				return fmt.Errorf("transition %d end %.4g != successor start %.4g", i, tr.End, next.Start)
			}
			if math.Abs(next.V0-tr.V(next.Start)) > 1e-9 {
				return fmt.Errorf("transition %d V0 %.4g discontinuous with predecessor voltage %.4g", i+1, next.V0, tr.V(next.Start))
			}
		} else if !math.IsInf(tr.End, 1) {
			return fmt.Errorf("last transition has finite end %.4g", tr.End)
		}
	}
	return nil
}
