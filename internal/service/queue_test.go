package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQueueRunsJobs(t *testing.T) {
	p := newWorkerPool(4, 16)
	defer p.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		for {
			err := p.SubmitTask(context.Background(), func() { ran.Add(1); wg.Done() }, nil)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	if got := ran.Load(); got != 64 {
		t.Fatalf("ran %d jobs, want 64", got)
	}
}

func TestQueueFullRejectsFast(t *testing.T) {
	p := newWorkerPool(1, 1)
	defer p.Close()
	gate := make(chan struct{})
	running := make(chan struct{})
	// Occupy the single worker and wait until it has the job...
	if err := p.SubmitTask(context.Background(), func() { close(running); <-gate }, nil); err != nil {
		t.Fatal(err)
	}
	<-running
	// ...fill the single queue slot...
	if err := p.SubmitTask(context.Background(), func() {}, nil); err != nil {
		t.Fatal(err)
	}
	// ...now submission must fail fast with ErrQueueFull.
	if err := p.SubmitTask(context.Background(), func() {}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("SubmitTask on full queue: err = %v, want ErrQueueFull", err)
	}
	if p.Stats().Rejected == 0 {
		t.Error("rejection not counted")
	}
	close(gate)
}

func TestQueueCloseDrains(t *testing.T) {
	p := newWorkerPool(2, 32)
	var ran atomic.Int64
	started := make(chan struct{})
	for i := 0; i < 16; i++ {
		i := i
		if err := p.SubmitTask(context.Background(), func() {
			if i == 0 {
				close(started)
			}
			time.Sleep(2 * time.Millisecond)
			ran.Add(1)
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	<-started // at least one job is in flight when Close begins
	p.Close()
	if got := ran.Load(); got != 16 {
		t.Fatalf("Close returned with %d/16 jobs done — did not drain", got)
	}
	if err := p.SubmitTask(context.Background(), func() {}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitTask after Close: err = %v, want ErrClosed", err)
	}
	// Idempotent.
	p.Close()
}

// TestQueueSubmitWaitBlocksForSpace pins the blocking submit path the
// batch fan-out uses: a full queue makes SubmitWaitTask wait for capacity
// instead of rejecting, and a canceled context unblocks it with an error.
func TestQueueSubmitWaitBlocksForSpace(t *testing.T) {
	p := newWorkerPool(1, 1)
	defer p.Close()
	gate := make(chan struct{})
	running := make(chan struct{})
	if err := p.SubmitTask(context.Background(), func() { close(running); <-gate }, nil); err != nil {
		t.Fatal(err)
	}
	<-running
	if err := p.SubmitTask(context.Background(), func() {}, nil); err != nil { // fill the queue slot
		t.Fatal(err)
	}

	// SubmitWaitTask with a live context parks until the worker frees a
	// slot.
	var ran atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- p.SubmitWaitTask(context.Background(), func() { ran.Store(true) }, nil)
	}()
	select {
	case err := <-done:
		t.Fatalf("SubmitWaitTask returned %v while the queue was full", err)
	case <-time.After(10 * time.Millisecond):
	}
	close(gate) // worker drains; the waiting submit lands
	if err := <-done; err != nil {
		t.Fatalf("SubmitWaitTask after drain: %v", err)
	}
	p.Close() // drains the landed job
	if !ran.Load() {
		t.Error("SubmitWaitTask job never ran")
	}
}

func TestQueueSubmitWaitCanceled(t *testing.T) {
	p := newWorkerPool(1, 1)
	defer p.Close()
	gate := make(chan struct{})
	defer close(gate)
	running := make(chan struct{})
	if err := p.SubmitTask(context.Background(), func() { close(running); <-gate }, nil); err != nil {
		t.Fatal(err)
	}
	<-running
	if err := p.SubmitTask(context.Background(), func() {}, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.SubmitWaitTask(ctx, func() {}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitWaitTask with canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestQueuePeakInFlight pins the concurrency high-water mark the batch
// fan-out test relies on.
func TestQueuePeakInFlight(t *testing.T) {
	p := newWorkerPool(4, 16)
	var wg sync.WaitGroup
	barrier := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		if err := p.SubmitTask(context.Background(), func() { defer wg.Done(); <-barrier }, nil); err != nil {
			t.Fatal(err)
		}
	}
	// All four workers must pick up a job before the barrier opens.
	for p.Stats().InFlight != 4 {
		time.Sleep(time.Millisecond)
	}
	close(barrier)
	wg.Wait()
	p.Close()
	if peak := p.Stats().PeakInFlight; peak != 4 {
		t.Errorf("peak in-flight = %d, want 4", peak)
	}
	if inflight := p.Stats().InFlight; inflight != 0 {
		t.Errorf("in-flight = %d after drain, want 0", inflight)
	}
}

func TestQueueConcurrentSubmitAndClose(t *testing.T) {
	p := newWorkerPool(4, 64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				err := p.SubmitTask(context.Background(), func() {}, nil)
				if err != nil && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrClosed) {
					t.Errorf("unexpected SubmitTask error: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	p.Close()
	wg.Wait()
}

// TestQueueShedsExpiredAtDequeue: a task whose context dies while it waits
// in the backlog is dropped at dequeue — the expired callback fires, run
// never does, and the Expired counter moves.
func TestQueueShedsExpiredAtDequeue(t *testing.T) {
	p := newWorkerPool(1, 4)
	defer p.Close()

	gate := make(chan struct{})
	running := make(chan struct{})
	if err := p.SubmitTask(context.Background(), func() { close(running); <-gate }, nil); err != nil {
		t.Fatal(err)
	}
	<-running

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	shed := make(chan error, 1)
	if err := p.SubmitTask(ctx, func() { ran.Store(true) }, func(err error) { shed <- err }); err != nil {
		t.Fatal(err)
	}
	cancel()    // the queued task's deadline dies behind the blocker
	close(gate) // free the worker; it must shed, not run

	select {
	case err := <-shed:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("expired callback got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expired callback never fired")
	}
	if ran.Load() {
		t.Fatal("expired task ran anyway")
	}
	if got := p.Stats().Expired; got != 1 {
		t.Fatalf("Expired = %d, want 1", got)
	}
}

// TestQueueLiveTaskRuns: SubmitTask with a live context runs the job and
// never calls expired.
func TestQueueLiveTaskRuns(t *testing.T) {
	p := newWorkerPool(1, 4)
	defer p.Close()
	done := make(chan struct{})
	if err := p.SubmitTask(context.Background(), func() { close(done) }, func(error) {
		t.Error("expired callback fired for a live task")
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("task never ran")
	}
}
