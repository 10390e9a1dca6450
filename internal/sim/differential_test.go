package sim_test

import (
	"fmt"
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netlist"
	"halotis/internal/sim"
	"halotis/internal/stimuli"
)

type workload struct {
	name string
	ckt  *netlist.Circuit
}

// referenceWorkloads returns every scalable circuit family at 250 gates,
// plus the threshold-override path (Fig. 1) and an ISCAS85 import.
func referenceWorkloads(t *testing.T) []workload {
	t.Helper()
	lib := cellib.Default06()
	var wls []workload
	for _, fam := range circuits.ScalableFamilies() {
		ckt, err := fam.Build(lib, 250)
		if err != nil {
			t.Fatalf("%s: %v", fam.Name, err)
		}
		wls = append(wls, workload{fam.Name, ckt})
	}
	fig1, err := circuits.Figure1(lib)
	if err != nil {
		t.Fatal(err)
	}
	wls = append(wls, workload{"figure1", fig1})
	c17, err := circuits.C17(lib)
	if err != nil {
		t.Fatal(err)
	}
	return append(wls, workload{"c17", c17})
}

// matchReference runs the reference kernel on the stimulus and fails the
// test unless got carries the same counters and bit-identical transitions
// on every net. It returns the largest per-net transition count.
func matchReference(t *testing.T, label string, ckt *netlist.Circuit, st sim.Stimulus, tEnd float64, m sim.Model, got *sim.Result) int {
	t.Helper()
	want, err := referenceRun(ckt, st, tEnd, m)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if got.Stats != want.stats {
		t.Fatalf("%s: stats differ:\n engine    %+v\n reference %+v", label, got.Stats, want.stats)
	}
	if got.Stats.EventsProcessed == 0 {
		t.Fatalf("%s: degenerate workload, nothing simulated", label)
	}
	most := 0
	for _, n := range ckt.Nets {
		gt := got.Waveform(n.Name).Transitions()
		wt := want.wfs[n.Name].Transitions()
		if len(gt) != len(wt) {
			t.Fatalf("%s: net %s transition count %d != %d", label, n.Name, len(gt), len(wt))
		}
		for i := range gt {
			if gt[i] != wt[i] {
				t.Fatalf("%s: net %s transition %d differs:\n engine    %v\n reference %v",
					label, n.Name, i, &gt[i], &wt[i])
			}
		}
		most = max(most, len(gt))
	}
	return most
}

const (
	refPeriod = 5.0
	refSlew   = 0.2
)

// refPartitions are the partition counts the engine is held to the
// reference kernel at: one lane, and two and four partition workers.
var refPartitions = []int{1, 2, 4}

// TestFamiliesMatchReference is the refactor's differential guard: every
// scalable circuit family, simulated through the compiled-IR engine, must
// be bit-identical — waveforms and kernel counters — to the pointer-chasing
// reference kernel for both delay models and every partition count.
func TestFamiliesMatchReference(t *testing.T) {
	const (
		vectors = 6
		tEnd    = refPeriod * (vectors + 1)
	)
	for _, wl := range referenceWorkloads(t) {
		st, err := stimuli.RandomStimulusFor(wl.ckt, vectors, refPeriod, refSlew, 99)
		if err != nil {
			t.Fatalf("%s: stimulus: %v", wl.name, err)
		}
		for _, m := range []sim.Model{sim.DDM, sim.CDM} {
			for _, p := range refPartitions {
				label := fmt.Sprintf("%s/%v/P=%d", wl.name, m, p)
				got, err := sim.NewEngine(wl.ckt, sim.Options{Model: m, Partitions: p}).Run(st, tEnd)
				if err != nil {
					t.Fatalf("%s: engine: %v", label, err)
				}
				matchReference(t, label, wl.ckt, st, tEnd, m, got)
			}
		}
	}
}

// TestReusedEngineMatchesReference runs two different stimuli back to back
// on one engine per workload, model and partition count, and holds both
// runs to the reference kernel. The second stimulus is longer, so nets that
// stayed within their slab chunk on the first run outgrow it on a warmed
// engine — the reuse path of the engine's contiguous transition storage.
func TestReusedEngineMatchesReference(t *testing.T) {
	runs := []struct {
		vectors int
		seed    int64
	}{{4, 7}, {16, 8}}
	for _, wl := range referenceWorkloads(t) {
		for _, m := range []sim.Model{sim.DDM, sim.CDM} {
			for _, p := range refPartitions {
				eng := sim.NewEngine(wl.ckt, sim.Options{Model: m, Partitions: p})
				most := 0
				for i, r := range runs {
					label := fmt.Sprintf("%s/%v/P=%d/run%d", wl.name, m, p, i)
					st, err := stimuli.RandomStimulusFor(wl.ckt, r.vectors, refPeriod, refSlew, r.seed)
					if err != nil {
						t.Fatalf("%s: stimulus: %v", label, err)
					}
					tEnd := refPeriod * float64(r.vectors+1)
					got, err := eng.Run(st, tEnd)
					if err != nil {
						t.Fatalf("%s: engine: %v", label, err)
					}
					most = matchReference(t, label, wl.ckt, st, tEnd, m, got)
				}
				if most <= sim.TransitionChunk {
					t.Errorf("%s/%v/P=%d: no net outgrew its %d-slot chunk on the warmed engine (most %d transitions)",
						wl.name, m, p, sim.TransitionChunk, most)
				}
			}
		}
	}
}
