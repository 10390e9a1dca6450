package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// notifyListener closes closed when the server closes it, which
// http.Server.Shutdown does before it waits for in-flight requests.
type notifyListener struct {
	net.Listener
	once   sync.Once
	closed chan struct{}
}

func (l *notifyListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return l.Listener.Close()
}

// startServe runs serve on a loopback listener and returns the listener,
// the cancel that starts the shutdown, and the channel serve's result
// arrives on.
func startServe(t *testing.T, h http.Handler, drainTimeout time.Duration) (*notifyListener, context.CancelFunc, <-chan error) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &notifyListener{Listener: inner, closed: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- serve(ctx, slog.New(slog.DiscardHandler), ln, h, drainTimeout) }()
	return ln, cancel, done
}

// get sends one GET to ln and delivers the response body or the error.
func get(ln net.Listener) <-chan error {
	out := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			out <- err
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && string(body) != "done" {
			err = errors.New("body " + string(body))
		}
		out <- err
	}()
	return out
}

func TestServeDrainsInFlightRequest(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	ln, cancel, done := startServe(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "done")
	}), time.Minute)
	resp := get(ln)
	<-started
	cancel()
	// The handler finishes only after shutdown has closed the listener,
	// so the request is in flight for the whole drain.
	<-ln.closed
	close(release)
	if err := <-resp; err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve = %v after a clean drain, want nil", err)
	}
}

func TestServeForceClosesPastDrainTimeout(t *testing.T) {
	started, aborted := make(chan struct{}), make(chan struct{})
	ln, cancel, done := startServe(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-r.Context().Done()
		close(aborted)
	}), 50*time.Millisecond)
	resp := get(ln)
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("serve = %v, want the drain deadline's error", err)
	}
	<-aborted // closing the connection canceled the handler's request context
	if err := <-resp; err == nil {
		t.Fatal("request that outlived the drain timeout completed; want its connection closed")
	}
}

func TestChaosMiddlewareRejectsMalformedSpec(t *testing.T) {
	logger := slog.New(slog.DiscardHandler)
	for _, spec := range []string{"meteor:p=0.1", "latency:p=2", "latency:p", "reset:burst=3/2", "status:color=red"} {
		if _, err := chaosMiddleware(logger, spec, 1); err == nil {
			t.Errorf("chaosMiddleware(%q) accepted a malformed spec", spec)
		}
	}
	if _, err := chaosMiddleware(logger, "latency:p=0.1,d=200ms;reset:p=0.05", 1); err != nil {
		t.Errorf("chaosMiddleware rejected a valid spec: %v", err)
	}
}
