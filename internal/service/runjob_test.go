package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"halotis/api"
	"halotis/client"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netfmt"
)

// TestAbandonedJobNotesNoQueueWait: a client that goes away while its
// upload job runs makes the handler return before the job reports back.
// The job's queue wait reaches the flight note only through runJob's
// result, on the handler goroutine, so the worker never writes the note
// the node shell reads once the handler returns (the race detector checks
// that ordering), and the abandoned request files no queue wait — as a job
// shed at dequeue files none.
func TestAbandonedJobNotesNoQueueWait(t *testing.T) {
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
	for s.queue.Stats().InFlight != 1 {
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
	for s.queue.Stats().InFlight != 0 {
		time.Sleep(time.Millisecond)
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
			if rec.QueueWaitMs != 0 {
				t.Fatalf("abandoned upload filed queue wait %gms, want none", rec.QueueWaitMs)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no upload record in the flight recorder: %+v", fr.Records)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
