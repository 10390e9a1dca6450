package halotis

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"halotis/api"
	"halotis/internal/service"
)

// errTestServer stands up an in-process halotisd and returns the service
// internals (so cases can evict circuits or drain the queue) plus a
// RemoteBackend over it.
func errTestServer(t *testing.T, cfg service.Config) (*service.Server, *RemoteBackend) {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, NewRemote(ts.URL)
}

func errTestCircuit(t *testing.T) *Circuit {
	t.Helper()
	ckt, err := C17(DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

func validC17Request(ckt *Circuit) Request {
	st := Stimulus{}
	for i, in := range ckt.Inputs {
		st[in.Name] = InputWave{Edges: []InputEdge{{Time: 2 + float64(i), Rising: true, Slew: 0.2}}}
	}
	return Request{TEnd: 30, Stimulus: WireStimulus(st)}
}

// TestSessionErrorTaxonomy is the table-driven acceptance test for typed
// errors: for each failure class, the Local and the Remote backend return
// an error matchable with errors.Is against the same sentinel — callers
// branch identically whichever backend is behind the interface.
func TestSessionErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	ckt := errTestCircuit(t)

	sentinels := []error{ErrCircuitNotFound, ErrOverloaded, ErrCanceled, ErrInvalidRequest}

	cases := []struct {
		name string
		want error
		run  func(t *testing.T) error
	}{
		{
			name: "local/not-found-after-close",
			want: ErrCircuitNotFound,
			run: func(t *testing.T) error {
				s, err := NewLocal().Open(ctx, ckt)
				if err != nil {
					t.Fatal(err)
				}
				s.Close()
				_, err = s.Run(ctx, validC17Request(ckt))
				return err
			},
		},
		{
			name: "remote/not-found-after-evict",
			want: ErrCircuitNotFound,
			run: func(t *testing.T) error {
				_, be := errTestServer(t, service.Config{})
				s, err := be.Open(ctx, ckt)
				if err != nil {
					t.Fatal(err)
				}
				if err := be.Client().Evict(ctx, s.Circuit().ID); err != nil {
					t.Fatal(err)
				}
				_, err = s.Run(ctx, validC17Request(ckt))
				return err
			},
		},
		{
			name: "local/overloaded",
			want: ErrOverloaded,
			run: func(t *testing.T) error {
				be := NewLocal(WithLocalMaxConcurrent(1))
				s, err := be.Open(ctx, ckt)
				if err != nil {
					t.Fatal(err)
				}
				// Occupy the backend's single admission slot, as a
				// long-running concurrent Run would.
				if err := be.gate.Enter(ctx); err != nil {
					t.Fatal(err)
				}
				defer be.gate.Leave()
				_, err = s.Run(ctx, validC17Request(ckt))
				return err
			},
		},
		{
			name: "remote/overloaded-with-retry-after",
			want: ErrOverloaded,
			run: func(t *testing.T) error {
				svc, be := errTestServer(t, service.Config{})
				s, err := be.Open(ctx, ckt)
				if err != nil {
					t.Fatal(err)
				}
				// A draining daemon refuses admission: 503 + Retry-After.
				svc.Close()
				_, err = s.Run(ctx, validC17Request(ckt))
				if ra, ok := api.RetryAfter(err); !ok || ra < time.Second {
					t.Errorf("RetryAfter(err) = %v, %v; want >= 1s hint", ra, ok)
				}
				return err
			},
		},
		{
			name: "local/canceled-context",
			want: ErrCanceled,
			run: func(t *testing.T) error {
				s, err := NewLocal().Open(ctx, ckt)
				if err != nil {
					t.Fatal(err)
				}
				canceled, cancel := context.WithCancel(ctx)
				cancel()
				_, err = s.Run(canceled, validC17Request(ckt))
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want to unwrap to context.Canceled too", err)
				}
				return err
			},
		},
		{
			name: "remote/canceled-context",
			want: ErrCanceled,
			run: func(t *testing.T) error {
				_, be := errTestServer(t, service.Config{})
				s, err := be.Open(ctx, ckt)
				if err != nil {
					t.Fatal(err)
				}
				canceled, cancel := context.WithCancel(ctx)
				cancel()
				_, err = s.Run(canceled, validC17Request(ckt))
				return err
			},
		},
		{
			name: "remote/deadline-via-server-cap",
			want: ErrCanceled,
			run: func(t *testing.T) error {
				_, be := errTestServer(t, service.Config{MaxTimeout: time.Nanosecond})
				s, err := be.Open(ctx, ckt)
				if err != nil {
					t.Fatal(err)
				}
				_, err = s.Run(ctx, validC17Request(ckt))
				return err
			},
		},
		{
			name: "local/malformed-stimulus",
			want: ErrInvalidRequest,
			run: func(t *testing.T) error {
				s, err := NewLocal().Open(ctx, ckt)
				if err != nil {
					t.Fatal(err)
				}
				req := validC17Request(ckt)
				req.Stimulus["1"] = api.InputWave{Edges: []api.Edge{{T: -3, Rising: true, Slew: 0.2}}}
				_, err = s.Run(ctx, req)
				return err
			},
		},
		{
			name: "remote/malformed-stimulus",
			want: ErrInvalidRequest,
			run: func(t *testing.T) error {
				_, be := errTestServer(t, service.Config{})
				s, err := be.Open(ctx, ckt)
				if err != nil {
					t.Fatal(err)
				}
				req := validC17Request(ckt)
				req.Stimulus["1"] = api.InputWave{Edges: []api.Edge{{T: -3, Rising: true, Slew: 0.2}}}
				_, err = s.Run(ctx, req)
				return err
			},
		},
		{
			name: "local/unknown-input",
			want: ErrInvalidRequest,
			run: func(t *testing.T) error {
				s, err := NewLocal().Open(ctx, ckt)
				if err != nil {
					t.Fatal(err)
				}
				req := validC17Request(ckt)
				req.Stimulus["no_such_input"] = api.InputWave{Edges: []api.Edge{{T: 1, Rising: true, Slew: 0.2}}}
				_, err = s.Run(ctx, req)
				return err
			},
		},
		{
			name: "remote/unknown-input",
			want: ErrInvalidRequest,
			run: func(t *testing.T) error {
				_, be := errTestServer(t, service.Config{})
				s, err := be.Open(ctx, ckt)
				if err != nil {
					t.Fatal(err)
				}
				req := validC17Request(ckt)
				req.Stimulus["no_such_input"] = api.InputWave{Edges: []api.Edge{{T: 1, Rising: true, Slew: 0.2}}}
				_, err = s.Run(ctx, req)
				return err
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if err == nil {
				t.Fatal("run unexpectedly succeeded")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want errors.Is(%v)", err, tc.want)
			}
			// The classes are mutually exclusive: matching a second
			// sentinel would make callers' branching ambiguous.
			for _, other := range sentinels {
				if other != tc.want && errors.Is(err, other) {
					t.Errorf("err = %v also matches %v", err, other)
				}
			}
		})
	}
}

// TestLocalBatchReportsRootCause mirrors the service-side test on the
// Local backend: a batch whose failing request cancels kernel-heavy
// siblings reports the typed root cause, not a secondary cancellation.
func TestLocalBatchReportsRootCause(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.NumCPU())))
	ctx := context.Background()
	lib := DefaultLibrary()
	ckt, err := Multiplier4x4(lib)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLocal().Open(ctx, ckt)
	if err != nil {
		t.Fatal(err)
	}

	var reqs []Request
	for i := 0; i < 3; i++ { // kernel-heavy valid jobs
		pairs := make([]MultiplierPair, 250)
		for v := range pairs {
			pairs[v] = MultiplierPair{A: uint64((v*7 + i) % 16), B: uint64((v*13 + i) % 16)}
		}
		st, err := MultiplierSequence(pairs, 4, 4, 5.0, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, Request{TEnd: 1300, Stimulus: WireStimulus(st)})
	}
	reqs = append(reqs, Request{TEnd: 30, Waveforms: []string{"no_such_net"}})

	_, err = s.RunBatch(ctx, reqs)
	if err == nil {
		t.Fatal("batch with an invalid request succeeded")
	}
	if !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("err = %v, want the root-cause ErrInvalidRequest (not a secondary cancellation)", err)
	}
	if !strings.Contains(err.Error(), "requests[3]") {
		t.Errorf("error %q does not name the failing request index", err)
	}
}

// TestLocalBatchTakesOneSlotPerRun pins the batch admission rule under
// WithLocalMaxConcurrent: a batch that finds every slot held is refused at
// once; an admitted batch runs every request, each run holding a slot of
// its own, so no two runs of a batch are in flight beyond the bound.
func TestLocalBatchTakesOneSlotPerRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	ctx := context.Background()

	t.Run("refused when every slot is held", func(t *testing.T) {
		ckt := errTestCircuit(t)
		be := NewLocal(WithLocalMaxConcurrent(1))
		s, err := be.Open(ctx, ckt)
		if err != nil {
			t.Fatal(err)
		}
		if err := be.gate.Enter(ctx); err != nil {
			t.Fatal(err)
		}
		defer be.gate.Leave()
		if _, err := s.RunBatch(ctx, []Request{validC17Request(ckt)}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("batch with every slot held: err = %v, want ErrOverloaded", err)
		}
	})

	t.Run("one run at a time", func(t *testing.T) {
		ckt, err := Multiplier(DefaultLibrary(), 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		be := NewLocal(WithLocalMaxConcurrent(1))
		s, err := be.Open(ctx, ckt)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]Request, 16)
		for i := range reqs {
			pairs := make([]MultiplierPair, 30)
			for v := range pairs {
				pairs[v] = MultiplierPair{A: uint64((v*37 + i*11) % 256), B: uint64((v*91 + i*5) % 256)}
			}
			st, err := MultiplierSequence(pairs, 8, 8, 5.0, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			reqs[i] = Request{TEnd: 160, Stimulus: WireStimulus(st)}
		}
		reports, err := s.RunBatch(ctx, reqs)
		if err != nil {
			t.Fatalf("batch under MaxConcurrent(1): %v", err)
		}
		if len(reports) != len(reqs) {
			t.Fatalf("got %d reports, want %d", len(reports), len(reqs))
		}
		// Engines come from the session's pool: a second engine means two
		// runs of the batch were in flight at once.
		if n := s.(*localSession).pool.Created(); n != 1 {
			t.Errorf("a batch under MaxConcurrent(1) built %d engines, want 1", n)
		}
		if qs := be.gate.Stats(); qs.PeakInFlight != 1 || qs.InFlight != 0 {
			t.Errorf("gate stats after the batch = %+v, want peak 1 and nothing held", qs)
		}
	})
}
