package sim_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netlist"
	"halotis/internal/sim"
	"halotis/internal/stimuli"
)

// comparePartitioned runs the circuit sequentially and with the given
// partition count and asserts bit-identical stats and waveforms.
// requireEvents additionally rejects workloads where nothing fired — wanted
// for curated workloads, wrong for fuzz inputs (a one-vector stimulus can
// legitimately produce no edges at all).
func comparePartitioned(t *testing.T, label string, ckt *netlist.Circuit, st sim.Stimulus, tEnd float64, m sim.Model, parts int, requireEvents bool) {
	t.Helper()
	seq, err := sim.NewEngine(ckt, sim.Options{Model: m, Partitions: 1}).Run(st, tEnd)
	if err != nil {
		t.Fatalf("%s: sequential: %v", label, err)
	}
	par, err := sim.NewEngine(ckt, sim.Options{Model: m, Partitions: parts}).Run(st, tEnd)
	if err != nil {
		t.Fatalf("%s: partitioned P=%d: %v", label, parts, err)
	}
	if seq.Stats != par.Stats {
		t.Fatalf("%s: P=%d stats differ:\n sequential  %+v\n partitioned %+v", label, parts, seq.Stats, par.Stats)
	}
	if requireEvents && seq.Stats.EventsProcessed == 0 {
		t.Fatalf("%s: degenerate workload, nothing simulated", label)
	}
	for _, n := range ckt.Nets {
		gt := seq.Waveform(n.Name).Transitions()
		pt := par.Waveform(n.Name).Transitions()
		if len(gt) != len(pt) {
			t.Fatalf("%s: P=%d net %s transition count %d != %d", label, parts, n.Name, len(gt), len(pt))
		}
		for i := range gt {
			if gt[i] != pt[i] {
				t.Fatalf("%s: P=%d net %s transition %d differs:\n sequential  %v\n partitioned %v",
					label, parts, n.Name, i, &gt[i], &pt[i])
			}
		}
	}
}

// TestPartitionedMatchesSequential is the parallel kernel's differential
// guard: every scalable family plus the paper circuits, both delay models,
// several partition counts — all bit-identical to the one-lane run. P=1
// runs the same loop as P>1, so this is a self-consistency check; the
// independent oracle is the reference kernel, which
// TestFamiliesMatchReference holds P=1, 2 and 4 to directly. The CI race
// job runs this under -race, making it the data-race proof too.
func TestPartitionedMatchesSequential(t *testing.T) {
	lib := cellib.Default06()
	type workload struct {
		name string
		ckt  *netlist.Circuit
	}
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
	wls = append(wls, workload{"c17", c17})

	const (
		vectors = 6
		period  = 5.0
		slew    = 0.2
		tEnd    = period * (vectors + 1)
	)
	for _, wl := range wls {
		st, err := stimuli.RandomStimulusFor(wl.ckt, vectors, period, slew, 99)
		if err != nil {
			t.Fatalf("%s: stimulus: %v", wl.name, err)
		}
		for _, m := range []sim.Model{sim.DDM, sim.CDM} {
			// 63 partitions exceeds the gate count of c17 and figure1,
			// covering the clamp-to-NumGates path.
			for _, parts := range []int{2, 4, 63} {
				label := fmt.Sprintf("%s/%v", wl.name, m)
				comparePartitioned(t, label, wl.ckt, st, tEnd, m, parts, true)
			}
		}
	}
}

// TestPartitionedEngineReuse checks the partitioned path keeps the engine
// contract: repeated runs on one engine, including switching partition
// counts between runs, all reproduce the sequential result.
func TestPartitionedEngineReuse(t *testing.T) {
	lib := cellib.Default06()
	ckt, err := circuits.RandomCombinational(lib, circuits.RandomOptions{Inputs: 16, Gates: 600, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stimuli.RandomStimulusFor(ckt, 5, 4.0, 0.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	const tEnd = 30.0
	want, err := sim.NewEngine(ckt, sim.Options{}).Run(st, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := want.Stats

	eng := sim.NewEngine(ckt, sim.Options{Partitions: 4})
	for run := 0; run < 3; run++ {
		got, err := eng.Run(st, tEnd)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if got.Stats != wantStats {
			t.Fatalf("run %d: stats drifted:\n got  %+v\n want %+v", run, got.Stats, wantStats)
		}
	}
}

// TestPartitionedEventLimit pins the event limit to the run, not to how it
// is split: with MaxEvents at n-1, n and n+1 around a run's exact event
// count n, every partition count agrees with the sequential kernel — n-1
// fails, n and n+1 succeed. The service's result cache leaves Partitions
// out of its key on exactly this premise.
func TestPartitionedEventLimit(t *testing.T) {
	lib := cellib.Default06()
	ckt, err := circuits.FamilyByName("random-dag").Build(lib, 400)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stimuli.RandomStimulusFor(ckt, 3, 10, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	const tEnd = 40.0
	base, err := sim.NewEngine(ckt, sim.Options{Partitions: 1}).Run(st, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	n := base.Stats.EventsProcessed
	if n < 4*64 {
		t.Fatalf("workload fires %d events; need more than one 64-event batch per worker at P=4", n)
	}
	for _, limit := range []uint64{n - 1, n, n + 1} {
		for _, p := range []int{1, 2, 4} {
			_, err := sim.NewEngine(ckt, sim.Options{Partitions: p, MaxEvents: limit}).Run(st, tEnd)
			wantErr := limit < n
			if (err != nil) != wantErr {
				t.Errorf("P=%d MaxEvents=%d (run fires %d): err = %v, want error: %t", p, limit, n, err, wantErr)
			} else if err != nil && !strings.Contains(err.Error(), "event limit") {
				t.Errorf("P=%d MaxEvents=%d: error %q does not name the event limit", p, limit, err)
			}
		}
	}
}

// TestPartitionedCancellation builds a 100k-gate circuit, cancels a
// partitioned run mid-flight, and asserts the run returns promptly with the
// context error and that the engine remains usable afterwards — the
// per-worker cancellation check of the partitioned path.
func TestPartitionedCancellation(t *testing.T) {
	lib := cellib.Default06()
	ckt, err := circuits.RandomCombinational(lib, circuits.RandomOptions{Inputs: 256, Gates: 100_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stimuli.RandomStimulusFor(ckt, 40, 4.0, 0.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(ckt, sim.Options{Partitions: 4})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	begin := time.Now()
	_, err = eng.RunContext(ctx, st, 4.0*41)
	took := time.Since(begin)
	if err == nil {
		t.Skip("run finished before cancellation; machine too fast for this workload")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if took > 5*time.Second {
		t.Fatalf("canceled run took %v to return", took)
	}

	// The engine must be fully reusable: a short run afterwards succeeds
	// and matches a fresh engine bit-for-bit.
	short, err := stimuli.RandomStimulusFor(ckt, 2, 4.0, 0.2, 17)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunContext(context.Background(), short, 12.0)
	if err != nil {
		t.Fatalf("engine unusable after cancellation: %v", err)
	}
	want, err := sim.NewEngine(ckt, sim.Options{Partitions: 4}).Run(short, 12.0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Fatalf("post-cancel run diverged:\n got  %+v\n want %+v", got.Stats, want.Stats)
	}
}

// FuzzPartitionedIdentity fuzzes random DAG shapes, partition counts and
// stimulus seeds, asserting the partitioned kernel stays bit-identical to
// the sequential one on every input.
func FuzzPartitionedIdentity(f *testing.F) {
	f.Add(int64(1), uint16(60), uint8(3), uint8(3))
	f.Add(int64(2), uint16(200), uint8(2), uint8(1))
	f.Add(int64(3), uint16(350), uint8(5), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, gates uint16, parts, vectors uint8) {
		lib := cellib.Default06()
		g := 10 + int(gates)%400
		p := 2 + int(parts)%5
		v := 1 + int(vectors)%4
		ckt, err := circuits.RandomCombinational(lib, circuits.RandomOptions{Inputs: 8, Gates: g, Seed: seed})
		if err != nil {
			t.Skip()
		}
		st, err := stimuli.RandomStimulusFor(ckt, v, 4.0, 0.2, seed+1)
		if err != nil {
			t.Skip()
		}
		tEnd := 4.0 * float64(v+1)
		for _, m := range []sim.Model{sim.DDM, sim.CDM} {
			comparePartitioned(t, fmt.Sprintf("seed=%d g=%d %v", seed, g, m), ckt, st, tEnd, m, p, false)
		}
	})
}
