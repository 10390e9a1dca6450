package halotis

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"halotis/api"
	"halotis/internal/admit"
	"halotis/internal/circ"
	"halotis/internal/fanout"
	"halotis/internal/run"
	"halotis/internal/sim"
)

// LocalBackend runs sessions in-process: each opened circuit gets a warm
// engine pool over its compiled IR (shared with every other consumer of
// the circuit via circ.Compile's memoization), so steady-state runs hit
// the kernel's zero-allocation reuse path. It is the Session-API face of
// the same machinery Simulate/NewEngine use.
type LocalBackend struct {
	poolSize      int
	maxConcurrent int
	gate          *admit.Gate // nil when unbounded
}

// LocalOption configures NewLocal.
type LocalOption func(*LocalBackend)

// WithLocalPoolSize bounds the free engines retained per (session,
// options) pool (default: GOMAXPROCS).
func WithLocalPoolSize(n int) LocalOption { return func(b *LocalBackend) { b.poolSize = n } }

// WithLocalMaxConcurrent bounds the concurrently executing runs across all
// of the backend's sessions to n. A Run that finds every slot held is
// refused at once with ErrOverloaded. A RunBatch is refused at once only
// when every slot is held on entry; after that, each of its runs waits for
// a slot of its own. 0 (the default) means unbounded.
func WithLocalMaxConcurrent(n int) LocalOption { return func(b *LocalBackend) { b.maxConcurrent = n } }

// NewLocal builds the in-process backend.
func NewLocal(opts ...LocalOption) *LocalBackend {
	b := &LocalBackend{poolSize: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(b)
	}
	if b.poolSize <= 0 {
		b.poolSize = runtime.GOMAXPROCS(0)
	}
	if b.maxConcurrent > 0 {
		b.gate = admit.New(b.maxConcurrent, 0)
	}
	return b
}

// Open compiles the circuit (memoized on the circuit itself) and returns a
// session whose engine pool serves it.
func (b *LocalBackend) Open(ctx context.Context, ckt *Circuit) (Session, error) {
	if ckt == nil {
		return nil, api.InvalidRequestf("nil circuit")
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, api.Canceled(err)
		}
	}
	ir := circ.Compile(ckt)
	return &localSession{
		b:    b,
		pool: sim.NewEnginePool(ir, b.poolSize, nil),
		info: api.InfoOf(ir),
	}, nil
}

// localSession is one opened circuit on a LocalBackend. Safe for
// concurrent use: the pool hands each run its own engine.
type localSession struct {
	b      *LocalBackend
	pool   *sim.EnginePool
	info   api.CircuitInfo
	closed atomic.Bool
}

func (s *localSession) Circuit() CircuitInfo { return s.info }

// Close marks the session released; subsequent runs fail with
// ErrCircuitNotFound. The compiled IR itself stays memoized on the
// circuit (it is shared), only this session's warm engines become
// garbage.
func (s *localSession) Close() error {
	s.closed.Store(true)
	return nil
}

// acquireSlot enforces the backend's concurrency bound: a gate of
// maxConcurrent slots with no backlog, so a run that finds every slot held
// is refused at once.
func (s *localSession) acquireSlot(ctx context.Context) (release func(), err error) {
	g := s.b.gate
	if g == nil {
		return func() {}, nil
	}
	if err := g.Enter(ctx); err != nil {
		if errors.Is(err, admit.ErrFull) {
			return nil, &api.OverloadedError{Cause: fmt.Errorf("local backend at max concurrency %d", s.b.maxConcurrent)}
		}
		return nil, api.MapRunError(err) // ctx was dead when the slot came
	}
	return g.Leave, nil
}

func (s *localSession) Run(ctx context.Context, req Request) (*Report, error) {
	if s.closed.Load() {
		return nil, api.NotFoundf("session closed: circuit %s released", s.info.ID)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	release, err := s.acquireSlot(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.runOne(ctx, &req)
}

// runOne runs one request through the shared run path (internal/run),
// which owns the request's deadline and its pooled engine.
func (s *localSession) runOne(ctx context.Context, req *Request) (*Report, error) {
	st, err := req.Prepare(s.pool.IR())
	if err != nil {
		return nil, err
	}
	return run.Report(ctx, s.pool, req.Options().PoolKey(), s.info.ID, st, req, nil, 0)
}

// RunBatch fans the requests across min(GOMAXPROCS, len(reqs)) workers,
// each acquiring engines from the session's pool, and returns reports in
// request order — bit-identical to running each request alone. Under the
// concurrency bound a batch is refused at once when every slot is held on
// entry; then each run waits for a slot of its own, as a daemon batch's
// runs do. The first failure cancels the remaining runs; the root-cause
// error (not a sibling run's secondary cancellation) is returned, wrapped
// with its request index.
func (s *localSession) RunBatch(ctx context.Context, reqs []Request) ([]*Report, error) {
	if s.closed.Load() {
		return nil, api.NotFoundf("session closed: circuit %s released", s.info.ID)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	release, err := s.acquireSlot(ctx)
	if err != nil {
		return nil, err
	}
	release()

	g := s.b.gate
	reports := make([]*Report, len(reqs))
	errs := fanout.Each(ctx, len(reqs), runtime.GOMAXPROCS(0), true, func(ctx context.Context, i int) (err error) {
		if g != nil {
			if err := g.EnterWait(ctx); err != nil {
				return err // only a dead ctx: the Local gate never closes
			}
			defer g.Leave()
		}
		reports[i], err = s.runOne(ctx, &reqs[i])
		return err
	})
	for i, err := range errs {
		errs[i] = api.MapRunError(err) // a never-started slot holds the bare context error
	}
	if i, err := api.FirstFailure(errs); err != nil {
		return nil, fmt.Errorf("requests[%d]: %w", i, err)
	}
	return reports, nil
}
