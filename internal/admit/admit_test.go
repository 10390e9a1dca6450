package admit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hold takes one of g's slots for the test, failing it if the gate refuses.
func hold(t *testing.T, g *Gate) {
	t.Helper()
	if err := g.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// waitDepth waits until n callers wait in g's backlog.
func waitDepth(t *testing.T, g *Gate, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Depth != n {
		if time.Now().After(deadline) {
			t.Fatalf("backlog depth = %d, want %d", g.Stats().Depth, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGateRunsEveryCaller: every live caller that retries past a full
// backlog runs once, and the gate counts each and expires none.
func TestGateRunsEveryCaller(t *testing.T) {
	g := New(4, 16)
	defer g.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for range 64 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				err := g.Enter(context.Background())
				if err == nil {
					break
				}
				if !errors.Is(err, ErrFull) {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
			ran.Add(1)
			g.Leave()
		}()
	}
	wg.Wait()
	if got := ran.Load(); got != 64 {
		t.Fatalf("ran %d callers, want 64", got)
	}
	if st := g.Stats(); st.Executed != 64 || st.Expired != 0 || st.InFlight != 0 || st.Depth != 0 {
		t.Fatalf("stats after every caller left = %+v", st)
	}
}

// TestGateFullBacklogRefusesFast: with every slot held and the backlog at
// its depth, Enter refuses at once and counts the refusal. Depth 0 is the
// Local backend's bound: every caller that finds the slots held is refused.
func TestGateFullBacklogRefusesFast(t *testing.T) {
	for _, depth := range []int{0, 1, 3} {
		g := New(1, depth)
		hold(t, g)
		waited := make(chan error, depth)
		for range depth {
			go func() { waited <- g.Enter(context.Background()) }()
		}
		waitDepth(t, g, depth)
		if err := g.Enter(context.Background()); !errors.Is(err, ErrFull) {
			t.Fatalf("depth %d: Enter with a full backlog: err = %v, want ErrFull", depth, err)
		}
		if got := g.Stats().Rejected; got != 1 {
			t.Errorf("depth %d: Rejected = %d, want 1", depth, got)
		}
		g.Leave()
		for range depth {
			if err := <-waited; err != nil {
				t.Fatalf("depth %d: waiter: %v", depth, err)
			}
			g.Leave()
		}
		g.Close()
	}
}

// TestGateCloseDrains: Close refuses new callers, returns only once every
// admitted caller (holding a slot or waiting for one) has left, and is
// idempotent.
func TestGateCloseDrains(t *testing.T) {
	g := New(1, 4)
	hold(t, g)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Enter(context.Background()); err != nil {
				t.Error(err)
				return
			}
			ran.Add(1)
			g.Leave()
		}()
	}
	waitDepth(t, g, 2)
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	// Close refuses new callers before the admitted ones have left. The
	// probe's context is dead, so before Close it leaves the backlog at once.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for !errors.Is(g.Enter(dead), ErrClosed) {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a caller held a slot")
	case <-time.After(10 * time.Millisecond):
	}
	g.Leave()
	<-closed
	wg.Wait()
	if got := ran.Load(); got != 2 {
		t.Fatalf("Close returned with %d/2 waiters run", got)
	}
	if err := g.EnterWait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("EnterWait after Close: err = %v, want ErrClosed", err)
	}
	g.Close()
}

// TestGateEnterWaitPassesDepth: EnterWait, the batch runs' path, waits for
// a slot instead of being refused at the depth bound.
func TestGateEnterWaitPassesDepth(t *testing.T) {
	g := New(1, 0)
	defer g.Close()
	hold(t, g)
	done := make(chan error, 1)
	go func() { done <- g.EnterWait(context.Background()) }()
	waitDepth(t, g, 1)
	select {
	case err := <-done:
		t.Fatalf("EnterWait returned %v while the slot was held", err)
	case <-time.After(10 * time.Millisecond):
	}
	g.Leave()
	if err := <-done; err != nil {
		t.Fatalf("EnterWait after Leave: %v", err)
	}
	g.Leave()
	if got := g.Stats().Rejected; got != 0 {
		t.Errorf("Rejected = %d, want 0", got)
	}
}

// TestGateCanceledWait: a wait whose context is canceled returns ctx.Err(),
// for EnterWait and Enter alike.
func TestGateCanceledWait(t *testing.T) {
	g := New(1, 4)
	defer g.Close()
	hold(t, g)
	defer g.Leave()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.EnterWait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnterWait with a canceled ctx: err = %v, want context.Canceled", err)
	}
	if err := g.Enter(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Enter with a canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestGateWaiterLeavesOnCancel: a waiter whose context dies leaves the
// backlog at once, while the slot it waited for is still held.
func TestGateWaiterLeavesOnCancel(t *testing.T) {
	g := New(1, 4)
	defer g.Close()
	hold(t, g)
	defer g.Leave()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Enter(ctx) }()
	waitDepth(t, g, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v, want context.Canceled", err)
	}
	if st := g.Stats(); st.Depth != 0 || st.Expired != 1 || st.InFlight != 1 {
		t.Fatalf("stats after the waiter left = %+v, want depth 0, expired 1, one slot held", st)
	}
}

// TestGateShedsDeadContext: a caller whose context is already dead when it
// would take a free slot is shed, not admitted, and counted as expired.
func TestGateShedsDeadContext(t *testing.T) {
	g := New(1, 0)
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	if err := g.Enter(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Enter with a dead ctx: err = %v, want context.DeadlineExceeded", err)
	}
	if st := g.Stats(); st.Expired != 1 || st.InFlight != 0 || st.Executed != 0 {
		t.Fatalf("stats after the shed = %+v, want expired 1 and nothing run", st)
	}
	hold(t, g) // the shed caller gave its slot back
	g.Leave()
}

// TestGatePeakInFlight: the high-water mark reaches the slot count when
// every slot is held at once, and in-flight returns to zero.
func TestGatePeakInFlight(t *testing.T) {
	g := New(4, 16)
	var wg sync.WaitGroup
	barrier := make(chan struct{})
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Enter(context.Background()); err != nil {
				t.Error(err)
				return
			}
			<-barrier
			g.Leave()
		}()
	}
	for g.Stats().InFlight != 4 {
		time.Sleep(time.Millisecond)
	}
	close(barrier)
	wg.Wait()
	g.Close()
	if st := g.Stats(); st.PeakInFlight != 4 || st.InFlight != 0 {
		t.Errorf("peak in-flight = %d, in-flight = %d after drain; want 4 and 0", st.PeakInFlight, st.InFlight)
	}
}

// TestGateConcurrentEnterAndClose: callers racing Close either run and
// leave or are refused, and Close returns once the admitted ones left.
func TestGateConcurrentEnterAndClose(t *testing.T) {
	g := New(4, 64)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				err := g.Enter(context.Background())
				if err == nil {
					g.Leave()
					continue
				}
				if !errors.Is(err, ErrFull) && !errors.Is(err, ErrClosed) {
					t.Errorf("unexpected Enter error: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	g.Close()
	wg.Wait()
	if st := g.Stats(); st.InFlight != 0 || st.Depth != 0 {
		t.Errorf("stats after Close = %+v, want nothing held or waiting", st)
	}
}
