package run

import (
	"context"
	"errors"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"halotis/api"
	"halotis/internal/cellib"
	"halotis/internal/circ"
	"halotis/internal/circuits"
	"halotis/internal/obs"
	"halotis/internal/sim"
)

// c17 returns a pool over the compiled c17 benchmark and a request that
// drives every input once.
func c17(t *testing.T) (*sim.EnginePool, api.Request) {
	t.Helper()
	ckt, err := circuits.C17(cellib.Default06())
	if err != nil {
		t.Fatal(err)
	}
	ir := circ.Compile(ckt)
	st := api.Stimulus{}
	for i, in := range ir.Inputs {
		st[ir.NetName[in]] = api.InputWave{Edges: []api.Edge{{T: 2 + float64(i), Rising: true, Slew: 0.2}}}
	}
	return sim.NewEnginePool(ir, 2, nil), api.Request{TEnd: 30, Stimulus: st}
}

// report prepares req and runs it through Report.
func report(t *testing.T, ctx context.Context, pool *sim.EnginePool, req api.Request, progress *atomic.Uint64, maxTimeout time.Duration) (*api.Report, error) {
	t.Helper()
	st, err := req.Prepare(pool.IR())
	if err != nil {
		t.Fatal(err)
	}
	return Report(ctx, pool, req.Options().PoolKey(), pool.IR().Hash, st, &req, progress, maxTimeout)
}

func TestTimeout(t *testing.T) {
	for _, c := range []struct {
		ms   float64
		max  time.Duration
		want time.Duration
	}{
		{0, 0, 0},
		{100, 0, 100 * time.Millisecond},
		{0.5, 0, 500 * time.Microsecond},
		{100, 50 * time.Millisecond, 50 * time.Millisecond},
		{10, 50 * time.Millisecond, 10 * time.Millisecond},
		{0, 50 * time.Millisecond, 50 * time.Millisecond},
		{1e13, 0, math.MaxInt64},
		{1e13, time.Nanosecond, time.Nanosecond},
	} {
		if got := timeout(c.ms, c.max); got != c.want {
			t.Errorf("timeout(%g ms, max %v) = %v, want %v", c.ms, c.max, got, c.want)
		}
	}
}

// TestReportRunState: profiling follows each request, the progress counter
// receives exactly the run's events, and the engine goes back to the pool
// after every run, so sequential runs share one engine.
func TestReportRunState(t *testing.T) {
	pool, req := c17(t)
	ctx := context.Background()
	var events atomic.Uint64
	for i, profile := range []bool{true, false, true} {
		req.Profile = profile
		rep, err := report(t, ctx, pool, req, &events, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Profile != nil; got != profile {
			t.Errorf("run %d: profiled = %v, want %v", i, got, profile)
		}
		if rep.Circuit != pool.IR().Hash || rep.Stats.EventsProcessed == 0 {
			t.Errorf("run %d: report = %+v", i, rep)
		}
		if n := events.Load(); n != uint64(i+1)*rep.Stats.EventsProcessed {
			t.Errorf("run %d: progress counter = %d, want %d", i, n, uint64(i+1)*rep.Stats.EventsProcessed)
		}
	}
	if n := pool.Created(); n != 1 {
		t.Errorf("three sequential runs built %d engines, want 1", n)
	}
}

// TestReportDeadline: the run's deadline comes from maxTimeout when the
// request sets none, a run it aborts fails as ErrCanceled, and the engine
// still goes back to the pool.
func TestReportDeadline(t *testing.T) {
	pool, req := c17(t)
	_, err := report(t, context.Background(), pool, req, nil, time.Nanosecond)
	if !errors.Is(err, api.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run under a 1 ns MaxTimeout: err = %v, want ErrCanceled wrapping the deadline", err)
	}
	if _, err := report(t, context.Background(), pool, req, nil, 0); err != nil {
		t.Fatal(err)
	}
	if n := pool.Created(); n != 1 {
		t.Errorf("a failed run then a good one built %d engines, want 1", n)
	}
}

// TestReportSpans: a traced run records engine.acquire, kernel.run with its
// event count, and report.build, each a child of the caller's span; a
// failed run fails its kernel.run span.
func TestReportSpans(t *testing.T) {
	pool, req := c17(t)
	rec := obs.NewRecorder("test", 4)
	ctx := obs.WithTrace(context.Background(), rec, "trace-ok", "parent")
	rep, err := report(t, ctx, pool, req, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := rec.Trace("trace-ok")
	if !ok {
		t.Fatal("no spans recorded for a traced run")
	}
	var names []string
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
		if sp.ParentID != "parent" {
			t.Errorf("span %s has parent %q, want the caller's span", sp.Name, sp.ParentID)
		}
	}
	if want := []string{"engine.acquire", "kernel.run", "report.build"}; !slices.Equal(names, want) {
		t.Fatalf("spans = %v, want %v", names, want)
	}
	if got := tr.Spans[1].Attrs["events"]; got != strconv.FormatUint(rep.Stats.EventsProcessed, 10) {
		t.Errorf("kernel.run events = %q, want %d", got, rep.Stats.EventsProcessed)
	}

	ctx = obs.WithTrace(context.Background(), rec, "trace-fail", "parent")
	if _, err := report(t, ctx, pool, req, nil, time.Nanosecond); err == nil {
		t.Fatal("run under a 1 ns MaxTimeout succeeded")
	}
	tr, _ = rec.Trace("trace-fail")
	for _, sp := range tr.Spans {
		if sp.Name == "kernel.run" && sp.Error == "" {
			t.Error("the failed run's kernel.run span carries no error")
		}
		if sp.Name == "report.build" {
			t.Error("a failed run recorded report.build")
		}
	}
}
