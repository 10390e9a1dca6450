package fanout

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gauge tracks how many calls are in flight and the high-water mark.
type gauge struct{ cur, peak atomic.Int32 }

func (g *gauge) enter() {
	c := g.cur.Add(1)
	for p := g.peak.Load(); c > p && !g.peak.CompareAndSwap(p, c); p = g.peak.Load() {
	}
}

func (g *gauge) leave() { g.cur.Add(-1) }

// TestEachRunsEveryIndexOnce: every index runs exactly once, its error
// lands in its own slot, and concurrency never exceeds workers.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{1, 1}, {7, 1}, {50, 3}, {8, 8}, {5, 16}} {
		runs := make([]atomic.Int32, tc.n)
		var g gauge
		errs := Each(context.Background(), tc.n, tc.workers, false, func(_ context.Context, i int) error {
			g.enter()
			defer g.leave()
			runs[i].Add(1)
			if i%3 == 0 {
				return slotErr(i)
			}
			return nil
		})
		if len(errs) != tc.n {
			t.Fatalf("n=%d: %d slots", tc.n, len(errs))
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, got)
			}
			var se slotErr
			if want := i%3 == 0; want != errors.As(errs[i], &se) || want && int(se) != i {
				t.Errorf("n=%d: slot %d holds %v", tc.n, i, errs[i])
			}
		}
		if p := g.peak.Load(); p > int32(tc.workers) {
			t.Errorf("n=%d workers=%d: peak concurrency %d", tc.n, tc.workers, p)
		}
	}
}

type slotErr int

func (e slotErr) Error() string { return "slot failed" }

// TestEachPeakReachesWorkers: the first workers calls each wait for all of
// them to be in flight at once, which only happens when Each really runs
// workers calls side by side.
func TestEachPeakReachesWorkers(t *testing.T) {
	const workers = 4
	var mu sync.Mutex
	arrived := 0
	all := make(chan struct{})
	errs := Each(context.Background(), 3*workers, workers, false, func(_ context.Context, i int) error {
		if i >= workers {
			return nil
		}
		mu.Lock()
		if arrived++; arrived == workers {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("fewer than workers calls ran at once")
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
}

// TestEachCancelOnError: the first failure cancels the context of the
// calls in flight; indexes reached afterwards hold the context's error and
// never reach do.
func TestEachCancelOnError(t *testing.T) {
	const n = 20
	boom := errors.New("boom")
	started := make(chan struct{})
	var reached [n]atomic.Bool
	errs := Each(context.Background(), n, 2, true, func(ctx context.Context, i int) error {
		reached[i].Store(true)
		switch i {
		case 0: // in flight when index 1 fails: must see its ctx canceled
			close(started)
			<-ctx.Done()
			return ctx.Err()
		case 1:
			<-started
			return boom
		}
		t.Errorf("index %d reached do after the failure", i)
		return nil
	})
	if !errors.Is(errs[0], context.Canceled) {
		t.Errorf("in-flight slot 0 = %v, want context.Canceled", errs[0])
	}
	if errs[1] != boom {
		t.Errorf("failing slot 1 = %v, want boom", errs[1])
	}
	for i := 2; i < n; i++ {
		if errs[i] != context.Canceled || reached[i].Load() {
			t.Errorf("unstarted slot %d = %v (reached %v), want the bare context error", i, errs[i], reached[i].Load())
		}
	}
}

// TestEachWithoutCancelRunsAll: without cancel-on-error every index runs
// whatever its siblings return.
func TestEachWithoutCancelRunsAll(t *testing.T) {
	var ran atomic.Int32
	errs := Each(context.Background(), 10, 3, false, func(ctx context.Context, i int) error {
		ran.Add(1)
		if ctx.Err() != nil {
			t.Errorf("index %d ran under a canceled context", i)
		}
		return slotErr(i)
	})
	if ran.Load() != 10 {
		t.Fatalf("ran %d of 10 indexes", ran.Load())
	}
	for i, err := range errs {
		if err != slotErr(i) {
			t.Errorf("slot %d = %v", i, err)
		}
	}
}

// TestEachCanceledParentRunsNothing: a parent context already done runs no
// index; every slot holds the parent's error.
func TestEachCanceledParentRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cancelOnError := range []bool{false, true} {
		errs := Each(ctx, 5, 2, cancelOnError, func(context.Context, int) error {
			t.Error("do called under a canceled parent")
			return nil
		})
		for i, err := range errs {
			if err != context.Canceled {
				t.Errorf("slot %d = %v, want context.Canceled", i, err)
			}
		}
	}
}

// TestEachEdgeSizes: n = 0 returns an empty result without calling do, and
// workers <= 0 runs the batch on one goroutine.
func TestEachEdgeSizes(t *testing.T) {
	if errs := Each(context.Background(), 0, 4, true, func(context.Context, int) error {
		t.Error("do called for an empty batch")
		return nil
	}); len(errs) != 0 {
		t.Errorf("empty batch returned %d slots", len(errs))
	}
	for _, workers := range []int{0, -3} {
		var g gauge
		var ran atomic.Int32
		Each(context.Background(), 6, workers, false, func(context.Context, int) error {
			g.enter()
			defer g.leave()
			ran.Add(1)
			return nil
		})
		if ran.Load() != 6 || g.peak.Load() != 1 {
			t.Errorf("workers=%d: ran %d, peak %d; want 6 runs on one goroutine", workers, ran.Load(), g.peak.Load())
		}
	}
}
