package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netlist"
)

// busyWorkload returns a circuit and stimulus with enough events that a
// cancellation landing mid-run is observable: the 4x4 multiplier driven by
// staggered pulse trains on every input.
func busyWorkload(t *testing.T) (ckt *netlist.Circuit, st Stimulus, tEnd float64) {
	t.Helper()
	lib := cellib.Default06()
	ckt, err := circuits.Multiplier(lib, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 64
	st = Stimulus{}
	for i, in := range ckt.Inputs {
		w := InputWave{}
		rising := true
		for c := 0; c < cycles; c++ {
			tEdge := 1.0 + float64(c)*5.0 + float64(i)*0.3
			w.Edges = append(w.Edges, InputEdge{Time: tEdge, Rising: rising, Slew: 0.2})
			rising = !rising
		}
		st[in.Name] = w
	}
	return ckt, st, 5.0*cycles + 10
}

func TestRunContextCanceledBeforeStart(t *testing.T) {
	ckt, st, tEnd := busyWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := NewEngine(ckt, Options{})
	_, err := eng.RunContext(ctx, st, tEnd)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx: err = %v, want context.Canceled", err)
	}

	// The engine must remain usable after an aborted run.
	res, err := eng.Run(st, tEnd)
	if err != nil {
		t.Fatalf("Run after aborted run: %v", err)
	}
	if res.Stats.EventsProcessed == 0 {
		t.Fatal("no events processed after recovery run")
	}
}

func TestRunContextDeadlineAbortsMidRun(t *testing.T) {
	ckt, st, tEnd := busyWorkload(t)
	eng := NewEngine(ckt, Options{})
	ref, err := eng.Run(st, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	total := ref.Stats.EventsProcessed
	if total < 4*ctxCheckMask {
		t.Fatalf("workload too small to observe mid-run aborts: %d events", total)
	}

	// An already-expired deadline must abort promptly, long before the
	// run's full event count; the progress counter reports how far the
	// aborted run got.
	var progress atomic.Uint64
	eng.SetProgress(&progress)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = eng.RunContext(ctx, st, tEnd)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := progress.Load(); got >= total {
		t.Fatalf("aborted run processed %d events, full run takes %d", got, total)
	}
}

func TestRunNilContextUnaffected(t *testing.T) {
	ckt, st, tEnd := busyWorkload(t)
	eng := NewEngine(ckt, Options{})
	a, err := eng.Run(st, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	aStats := a.Stats
	b, err := eng.RunContext(context.Background(), st, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	if aStats != b.Stats {
		t.Fatalf("ctx-bearing run diverged: %+v vs %+v", aStats, b.Stats)
	}
}

func TestRunBatchContextCancel(t *testing.T) {
	ckt, st, tEnd := busyWorkload(t)
	sts := make([]Stimulus, 16)
	for i := range sts {
		sts[i] = st
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunBatch(ckt, sts, tEnd, Options{Workers: 2, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatch on canceled ctx: err = %v, want context.Canceled", err)
	}
}

func TestRunBatchOptionsCtx(t *testing.T) {
	ckt, st, tEnd := busyWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunBatch(ckt, []Stimulus{st}, tEnd, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatch with Options.Ctx canceled: err = %v, want context.Canceled", err)
	}
}
