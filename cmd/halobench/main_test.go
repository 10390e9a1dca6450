package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// scaled returns base with every round multiplied by f.
func scaled(base []float64, f ...float64) []float64 {
	out := make([]float64, len(base))
	for i := range base {
		out[i] = base[i] * f[i%len(f)]
	}
	return out
}

// failing returns the modes whose gate is over its bound.
func failing(gates []gate) []string {
	var out []string
	for _, g := range gates {
		if g.delta > g.bound {
			out = append(out, g.mode)
		}
	}
	return out
}

func TestOverheadGates(t *testing.T) {
	floor := []float64{1000, 1040, 980, 1010, 1100} // one p50 per paired round
	noisy := scaled(floor, 1.30, 1.005, 1.12, 1.25, 1.08)
	cases := []struct {
		name string
		p50  map[string][]float64
		want []string
	}{{
		name: "every mode within its bound",
		p50: map[string][]float64{
			"disabled":      floor,
			"default":       scaled(floor, 1.01),
			"trace":         scaled(floor[:tracedRounds], 1.04),
			"trace+profile": scaled(floor[:tracedRounds], 1.045),
		},
	}, {
		name: "a traced mode 6% slower in every round fails",
		p50: map[string][]float64{
			"disabled":      floor,
			"default":       floor,
			"trace":         scaled(floor[:tracedRounds], 1.06),
			"trace+profile": floor[:tracedRounds],
		},
		want: []string{"trace"},
	}, {
		name: "one noisy round does not fail the paired rule when another is clean",
		p50: map[string][]float64{
			"disabled":      floor,
			"default":       noisy,
			"trace":         noisy[:tracedRounds],
			"trace+profile": noisy[:tracedRounds],
		},
	}, {
		name: "always-on surface 3% slower in every paired round fails",
		p50: map[string][]float64{
			"disabled":      floor,
			"default":       scaled(floor, 1.03),
			"trace":         scaled(floor[:tracedRounds], 1.03),
			"trace+profile": scaled(floor[:tracedRounds], 1.03),
		},
		want: []string{"default"},
	}, {
		// Load drift that lifts both sides of a pair is not overhead: the
		// paired rule compares within rounds, never across them.
		name: "drift shared by both sides of every pair passes",
		p50: map[string][]float64{
			"disabled":      scaled(floor, 1.0, 1.2, 1.4, 1.1, 1.3),
			"default":       scaled(floor, 1.01, 1.21, 1.41, 1.11, 1.31),
			"trace":         floor[:tracedRounds],
			"trace+profile": floor[:tracedRounds],
		},
	}}
	for _, c := range cases {
		if got := failing(overheadGates(c.p50)); !slices.Equal(got, c.want) {
			t.Errorf("%s: failing gates %v, want %v", c.name, got, c.want)
		}
	}
}

func TestGateStatistics(t *testing.T) {
	// Best round against best round: the traced mode's best (1030) is 3%
	// above default's best (1000), though its worst round is 20% above.
	if d := tracedDelta([]float64{1000, 1050, 1100}, []float64{1200, 1030, 1100}); d < 2.99 || d > 3.01 {
		t.Errorf("tracedDelta = %.3f, want 3", d)
	}
	// Cleanest paired round: round 1's +0.5% wins over round 0's +20%.
	if d := pairedDelta([]float64{1000, 1200}, []float64{1200, 1206}); d < 0.49 || d > 0.51 {
		t.Errorf("pairedDelta = %.3f, want 0.5", d)
	}
}

func TestPlan(t *testing.T) {
	all, err := plan("all")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig1", "fig3", "fig5", "fig6", "fig7", "table1", "table2", "power", "ddmcurve"}
	if !slices.Equal(all, want) {
		t.Errorf("all = %v, want the paper's figures and tables %v", all, want)
	}
	for _, n := range all {
		if experiments[n] == nil {
			t.Errorf("all names %q, which has no runner", n)
		}
	}
	for _, n := range []string{"scale", "partition", "chaos", "obs"} {
		if got, err := plan(n); err != nil || !slices.Equal(got, []string{n}) {
			t.Errorf("plan(%q) = %v, %v; want just that mode", n, got, err)
		}
	}
	if len(experiments) != len(want)+4 {
		t.Errorf("%d experiments registered, want the %d paper modes and 4 others", len(experiments), len(want))
	}
	for _, n := range []string{"bench", "slo", "layers", "serve", "cluster", "", "All"} {
		if _, err := plan(n); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("plan(%q): err = %v, want unknown experiment", n, err)
		}
	}
}

func TestRunPrintsReport(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "fig3", &options{}); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("fig3 printed nothing")
	}
	if err := run(&out, "bench", &options{}); err == nil {
		t.Error("run accepted the removed bench mode")
	}
}
