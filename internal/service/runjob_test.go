package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"halotis/api"
	"halotis/client"
	"halotis/internal/admit"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netfmt"
)

// TestAbandonedJobNotesQueueWait: a client that goes away while its upload
// job runs still gets the job's queue wait filed on its flight note. The
// job runs on the handler goroutine, so the note is written before the
// handler returns and the node shell reads it (the race detector checks
// that ordering).
func TestAbandonedJobNotesQueueWait(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	// Parse and compile of 30,000 gates take long enough to cancel the
	// upload mid-job; upload jobs never poll the context.
	ckt, err := circuits.RandomCombinational(cellib.Default06(), circuits.RandomOptions{Inputs: 64, Gates: 30000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := netfmt.WriteCircuit(&text, ckt); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := client.New(ts.URL).UploadCircuit(ctx, api.UploadRequest{Netlist: text.String(), Format: "net"})
		done <- err
	}()
	for s.gate.Stats().InFlight != 1 {
		select {
		case err := <-done:
			t.Fatalf("upload returned (%v) before its job could be abandoned", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, api.ErrCanceled) {
		t.Fatalf("abandoned upload err = %v, want ErrCanceled", err)
	}

	cl := client.New(ts.URL)
	deadline := time.Now().Add(10 * time.Second)
	for {
		fr, err := cl.FlightRecords(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range fr.Records {
			if rec.Route != "upload" {
				continue
			}
			if rec.QueueWaitMs <= 0 {
				t.Fatalf("abandoned upload filed queue wait %gms, want the wait its job had", rec.QueueWaitMs)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no upload record in the flight recorder: %+v", fr.Records)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCanceledWaiterLeavesBacklog: a simulate whose client goes away while
// it waits for the held slot leaves the backlog at once, before the slot
// frees, and is counted as expired.
func TestCanceledWaiterLeavesBacklog(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	if err := s.gate.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.gate.Leave) // runs first: Close waits for the slot holder

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := client.New(ts.URL).Simulate(ctx, api.SimRequest{Netlist: netfmt.C17Bench(), Format: "bench", Request: api.Request{TEnd: 30}})
		done <- err
	}()
	waitQueue(t, s, "the simulate to wait", func(qs admit.Stats) bool { return qs.Depth == 1 })
	cancel()
	if err := <-done; !errors.Is(err, api.ErrCanceled) {
		t.Fatalf("abandoned simulate err = %v, want ErrCanceled", err)
	}
	waitQueue(t, s, "the abandoned waiter to leave the backlog", func(qs admit.Stats) bool { return qs.Depth == 0 })
	if qs := s.QueueStats(); qs.InFlight != 1 || qs.Expired != 1 || qs.Executed != 0 {
		t.Fatalf("queue stats = %+v, want the slot still held, one expired waiter and nothing run", qs)
	}
}

// waitQueue waits up to five seconds for the replica's queue stats to
// satisfy ok.
func waitQueue(t *testing.T, s *Server, what string, ok func(admit.Stats) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !ok(s.QueueStats()); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: queue stats %+v", what, s.QueueStats())
		}
	}
}

// TestRunTimeoutStartsAfterAdmission: timeout_ms bounds the run, not the
// wait for a slot. A simulate that waits longer than its timeout_ms for
// the held slot still runs once the slot frees, and answers with its
// report.
func TestRunTimeoutStartsAfterAdmission(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	if err := s.gate.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	var leave sync.Once
	t.Cleanup(func() { leave.Do(s.gate.Leave) }) // runs first: Close waits for the slot holder

	st := api.Stimulus{}
	for i, in := range []string{"1", "2", "3", "6", "7"} {
		st[in] = api.InputWave{Edges: []api.Edge{{T: 2 + float64(i), Rising: true, Slew: 0.2}}}
	}
	type answer struct {
		rep *api.Report
		err error
	}
	done := make(chan answer, 1)
	go func() {
		rep, err := client.New(ts.URL).Simulate(context.Background(), api.SimRequest{
			Netlist: netfmt.C17Bench(), Format: "bench",
			Request: api.Request{TEnd: 30, TimeoutMs: 100, Stimulus: st},
		})
		done <- answer{rep, err}
	}()
	waitQueue(t, s, "the simulate to wait", func(qs admit.Stats) bool { return qs.Depth == 1 })
	time.Sleep(200 * time.Millisecond) // twice the request's timeout_ms
	leave.Do(s.gate.Leave)

	got := <-done
	if got.err != nil {
		t.Fatalf("simulate admitted after a %s wait: %v, want its report (timeout_ms counts from the start of the run)", 200*time.Millisecond, got.err)
	}
	if got.rep.Stats.EventsProcessed == 0 {
		t.Fatalf("report = %+v, want a run that processed events", got.rep.Stats)
	}
}
