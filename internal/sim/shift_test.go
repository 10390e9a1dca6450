package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/sim"
	"halotis/internal/wave"
)

// pulseTrain drives every input with a seeded train of edges whose gaps are
// a third of the time narrow (0.05–0.4 ns), so gates see degraded,
// collapsed and filtered pulses, not only clean vectors. It returns the
// stimulus and the time of its last edge.
func pulseTrain(inputs []string, rng *rand.Rand) (sim.Stimulus, float64) {
	st := sim.Stimulus{}
	last := 0.0
	for _, in := range inputs {
		w := sim.InputWave{Init: rng.Intn(2) == 1}
		level, t := w.Init, rng.Float64()*2
		for n := 2 + rng.Intn(6); n > 0; n-- {
			level = !level
			w.Edges = append(w.Edges, sim.InputEdge{Time: t, Rising: level, Slew: 0.1 + 0.4*rng.Float64()})
			if rng.Intn(3) == 0 {
				t += 0.05 + 0.35*rng.Float64()
			} else {
				t += 0.5 + 3.5*rng.Float64()
			}
		}
		last = max(last, w.Edges[len(w.Edges)-1].Time)
		st[in] = w
	}
	return st, last
}

// shifted returns st with every edge moved dt later.
func shifted(st sim.Stimulus, dt float64) sim.Stimulus {
	out := make(sim.Stimulus, len(st))
	for in, w := range st {
		edges := make([]sim.InputEdge, len(w.Edges))
		for i, e := range w.Edges {
			e.Time += dt
			edges[i] = e
		}
		out[in] = sim.InputWave{Init: w.Init, Edges: edges}
	}
	return out
}

// shiftDeviation is the largest difference between b and a moved dt later
// over the transition's times, slew and start voltage; +Inf when the two
// differ in direction or in whether the ramp was truncated.
func shiftDeviation(a, b *wave.Transition, dt float64) float64 {
	if a.Rising != b.Rising || math.IsInf(a.End, 1) != math.IsInf(b.End, 1) {
		return math.Inf(1)
	}
	d := max(math.Abs(b.Start-a.Start-dt), math.Abs(b.Slew-a.Slew), math.Abs(b.V0-a.V0))
	if !math.IsInf(a.End, 1) {
		d = max(d, math.Abs(b.End-a.End-dt))
	}
	return d
}

// TestTimeShiftInvariance is a metamorphic oracle that compares the kernel
// with itself rather than with another kernel: the delay models depend on
// time differences only, so moving every stimulus edge 7.25 ns later must
// leave the counters identical and move every transition 7.25 ns later, up
// to floating-point rounding.
func TestTimeShiftInvariance(t *testing.T) {
	const (
		dt    = 7.25
		tol   = 1e-9
		seeds = 200
	)
	lib := cellib.Default06()
	worst := 0.0
	for seed := int64(1); seed <= seeds; seed++ {
		ckt, err := circuits.RandomCombinational(lib, circuits.RandomOptions{Inputs: 6, Gates: 40, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(ckt.Inputs))
		for i, in := range ckt.Inputs {
			names[i] = in.Name
		}
		st, last := pulseTrain(names, rand.New(rand.NewSource(seed)))
		tEnd := last + 20
		for _, m := range []sim.Model{sim.DDM, sim.CDM} {
			label := fmt.Sprintf("seed %d %v", seed, m)
			a, err := sim.New(ckt, sim.Options{Model: m}).Run(st, tEnd)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			b, err := sim.New(ckt, sim.Options{Model: m}).Run(shifted(st, dt), tEnd+dt)
			if err != nil {
				t.Fatalf("%s shifted: %v", label, err)
			}
			if a.Stats != b.Stats {
				t.Fatalf("%s: stats changed under a %g ns shift:\n original %+v\n shifted  %+v", label, dt, a.Stats, b.Stats)
			}
			for _, n := range ckt.Nets {
				at, bt := a.Waveform(n.Name).Transitions(), b.Waveform(n.Name).Transitions()
				if len(at) != len(bt) {
					t.Fatalf("%s: net %s has %d transitions shifted, %d original", label, n.Name, len(bt), len(at))
				}
				for i := range at {
					d := shiftDeviation(&at[i], &bt[i], dt)
					if d > tol {
						t.Fatalf("%s: net %s transition %d deviates %g ns from the shifted original:\n original %+v\n shifted  %+v",
							label, n.Name, i, d, at[i], bt[i])
					}
					worst = max(worst, d)
				}
			}
		}
	}
	t.Logf("worst deviation over %d circuits x 2 models: %.3g ns", seeds, worst)
}
