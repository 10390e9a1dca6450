package sim

import "testing"

// chainStim is a small multi-edge workload for the reuse tests.
func chainStim() Stimulus {
	return Stimulus{"in": InputWave{Init: false, Edges: []InputEdge{
		{Time: 1, Rising: true, Slew: 0.3},
		{Time: 1.6, Rising: false, Slew: 0.4},
		{Time: 2.9, Rising: true, Slew: 0.2},
		{Time: 6, Rising: false, Slew: 0.3},
	}}}
}

// sameWaveforms fails the test unless the two results carry bit-identical
// transitions on every net.
func sameWaveforms(t *testing.T, label string, a, b *Result) {
	t.Helper()
	for _, n := range a.Circuit().Nets {
		wa := a.Waveform(n.Name).Transitions()
		wb := b.Waveform(n.Name).Transitions()
		if len(wa) != len(wb) {
			t.Fatalf("%s: net %s transition counts differ: %d vs %d", label, n.Name, len(wa), len(wb))
		}
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("%s: net %s transition %d differs:\n  %v\n  %v", label, n.Name, i, &wa[i], &wb[i])
			}
		}
	}
}

// TestEngineReuseMatchesFreshRuns checks that an engine run N times over
// interleaved stimuli and models reproduces single-shot results exactly.
func TestEngineReuseMatchesFreshRuns(t *testing.T) {
	ckt := invChain(t, 6)
	stims := []Stimulus{
		chainStim(),
		pulse("in", 2, 0.22, 0.12),
		{}, // quiescent
		{"in": InputWave{Init: true, Edges: []InputEdge{{Time: 3, Rising: false, Slew: 0.5}}}},
		chainStim(), // repeat of the first: must be bit-identical to run 0
	}
	for _, m := range []Model{DDM, CDM} {
		eng := NewEngine(ckt, Options{Model: m})
		var kept []*Result
		for i, st := range stims {
			got, err := eng.Run(st, 100)
			if err != nil {
				t.Fatalf("%v run %d: %v", m, i, err)
			}
			fresh, err := NewEngine(ckt, Options{Model: m}).Run(st, 100)
			if err != nil {
				t.Fatalf("%v fresh %d: %v", m, i, err)
			}
			if got.Stats != fresh.Stats {
				t.Fatalf("%v run %d stats differ:\n reuse %+v\n fresh %+v", m, i, got.Stats, fresh.Stats)
			}
			sameWaveforms(t, m.String(), got, fresh)
			kept = append(kept, got.Detach())
		}
		// Detached results must have survived all subsequent reuse.
		sameWaveforms(t, m.String()+" detach", kept[0], kept[4])
		if kept[0].Stats != kept[4].Stats {
			t.Fatalf("%v: repeated stimulus changed stats across reuse", m)
		}
		for _, n := range ckt.Nets {
			if err := kept[1].Waveform(n.Name).Validate(); err != nil {
				t.Errorf("%v: detached waveform %s invalid: %v", m, n.Name, err)
			}
		}
	}
}

// TestEngineRunAliasesUntilDetach documents the aliasing contract: the
// un-detached result of run i is overwritten by run i+1.
func TestEngineRunAliasesUntilDetach(t *testing.T) {
	ckt := invChain(t, 2)
	eng := NewEngine(ckt, Options{})
	r1, err := eng.Run(pulse("in", 2, 1.5, 0.3), 50)
	if err != nil {
		t.Fatal(err)
	}
	n1 := r1.Waveform("out").Len()
	if n1 == 0 {
		t.Fatal("expected transitions on out")
	}
	if _, err := eng.Run(Stimulus{}, 50); err != nil {
		t.Fatal(err)
	}
	if got := r1.Waveform("out").Len(); got != 0 {
		t.Errorf("stale result kept %d transitions; expected reuse to have reset the aliased waveform", got)
	}
}

// TestEngineSteadyStateZeroAllocs is the kernel's headline perf property:
// after a warm-up run, a reused engine performs a whole simulation —
// stimulus application, event loop, waveform writes — without allocating.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	ckt := invChain(t, 8)
	st := chainStim()
	for _, m := range []Model{DDM, CDM} {
		eng := NewEngine(ckt, Options{Model: m})
		if _, err := eng.Run(st, 100); err != nil { // warm-up
			t.Fatal(err)
		}
		//halotis:pins Run
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := eng.Run(st, 100); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: steady-state allocs/run = %g, want 0", m, allocs)
		}
	}
}

// TestEngineSteadyStateZeroAllocsAfterChunkOverflow pins the zero-alloc
// steady state when nets outgrow their slab chunk: a pulse train longer
// than the chunk forces every chain net to grow its transition storage on
// the warm-up run, and later runs must reuse that grown capacity.
func TestEngineSteadyStateZeroAllocsAfterChunkOverflow(t *testing.T) {
	ckt := invChain(t, 4)
	var edges []InputEdge
	for i := 0; i < 3*transitionChunk; i++ {
		edges = append(edges, InputEdge{Time: 1 + 2*float64(i), Rising: i%2 == 0, Slew: 0.3})
	}
	st := Stimulus{"in": InputWave{Edges: edges}}
	for _, m := range []Model{DDM, CDM} {
		eng := NewEngine(ckt, Options{Model: m})
		res, err := eng.Run(st, 100) // warm-up: every chain net overflows
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ckt.Nets {
			if got := res.Waveform(n.Name).Len(); got <= transitionChunk {
				t.Fatalf("%v: net %s recorded %d transitions, want more than the %d-slot chunk", m, n.Name, got, transitionChunk)
			}
		}
		//halotis:pins Run RunContext run applyStimulus emit reconcile fire
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := eng.Run(st, 100); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: steady-state allocs/run after chunk overflow = %g, want 0", m, allocs)
		}
	}
}

// TestRunBatchMatchesSequential checks batch results are bit-identical to
// one-at-a-time engine runs, in order, for both models and any worker count.
func TestRunBatchMatchesSequential(t *testing.T) {
	ckt := invChain(t, 5)
	var stims []Stimulus
	for i := 0; i < 23; i++ {
		w := 0.1 + 0.05*float64(i)
		stims = append(stims, pulse("in", 1.5, w, 0.15))
	}
	for _, m := range []Model{DDM, CDM} {
		for _, workers := range []int{1, 4, 0} {
			got, err := RunBatch(ckt, stims, 80, Options{Model: m, Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", m, workers, err)
			}
			if len(got) != len(stims) {
				t.Fatalf("%v: %d results for %d stimuli", m, len(got), len(stims))
			}
			for i, st := range stims {
				want, err := NewEngine(ckt, Options{Model: m}).Run(st, 80)
				if err != nil {
					t.Fatal(err)
				}
				if got[i].Stats != want.Stats {
					t.Fatalf("%v workers=%d stimulus %d: stats differ", m, workers, i)
				}
				sameWaveforms(t, m.String(), got[i], want)
			}
		}
	}
}

// TestRunBatchEmptyAndErrors covers the edge paths: empty input, invalid
// stimulus index reported.
func TestRunBatchEmptyAndErrors(t *testing.T) {
	ckt := invChain(t, 2)
	res, err := RunBatch(ckt, nil, 10, Options{})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
	stims := []Stimulus{
		pulse("in", 1, 0.5, 0.3),
		{"ghost": InputWave{}}, // invalid: unknown input
		pulse("in", 1, 0.7, 0.3),
	}
	_, err = RunBatch(ckt, stims, 10, Options{})
	if err == nil {
		t.Fatal("invalid stimulus not reported")
	}
}

// TestDetachIndependence checks a detached result shares nothing with the
// engine's live storage.
func TestDetachIndependence(t *testing.T) {
	ckt := invChain(t, 2)
	eng := NewEngine(ckt, Options{})
	r, err := eng.Run(pulse("in", 2, 1.0, 0.3), 50)
	if err != nil {
		t.Fatal(err)
	}
	d := r.Detach()
	live := r.Waveform("out").Transitions()
	det := d.Waveform("out").Transitions()
	if len(live) == 0 || len(det) != len(live) {
		t.Fatalf("detach mismatch: %d vs %d", len(det), len(live))
	}
	if &live[0] == &det[0] {
		t.Error("detached waveform aliases engine storage")
	}
}
