package halotis

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"halotis/api"
	"halotis/client"
	"halotis/internal/netfmt"
)

// RemoteBackend runs sessions against a halotisd daemon: Open serializes
// the circuit to the native netlist format and uploads it (idempotent —
// circuits are content-addressed, so re-opening a circuit any replica has
// seen costs one cache hit), and each Run is one POST /v1/simulate. The
// wire types are the same halotis/api structs the Local backend consumes,
// so a Request produces a bit-identical Report over either backend.
type RemoteBackend struct {
	c *client.Client
}

// NewRemote builds a backend over the daemon at base
// (e.g. "http://127.0.0.1:8080").
func NewRemote(base string, opts ...client.Option) *RemoteBackend {
	return &RemoteBackend{c: client.New(base, opts...)}
}

// NewRemoteFromClient wraps an existing typed client.
func NewRemoteFromClient(c *client.Client) *RemoteBackend { return &RemoteBackend{c: c} }

// Client exposes the underlying typed client for service-level calls the
// Session API does not cover (listing circuits, health, metrics).
func (b *RemoteBackend) Client() *client.Client { return b.c }

// Open uploads the circuit and returns a session bound to its
// content-hash ID.
func (b *RemoteBackend) Open(ctx context.Context, ckt *Circuit) (Session, error) {
	if ckt == nil {
		return nil, api.InvalidRequestf("nil circuit")
	}
	var text strings.Builder
	if err := netfmt.WriteCircuit(&text, ckt); err != nil {
		return nil, fmt.Errorf("serialize circuit: %w", err)
	}
	up, err := b.c.UploadCircuit(ctx, api.UploadRequest{Name: ckt.Name, Format: "net", Netlist: text.String()})
	if err != nil {
		return nil, fmt.Errorf("upload circuit: %w", err)
	}
	return &remoteSession{c: b.c, info: up.CircuitInfo}, nil
}

// remoteSession is one uploaded circuit on one daemon. Safe for concurrent
// use (the client is).
type remoteSession struct {
	c      *client.Client
	info   api.CircuitInfo
	closed atomic.Bool
}

func (s *remoteSession) Circuit() CircuitInfo { return s.info }

// Close marks the session released; subsequent runs fail with
// ErrCircuitNotFound. The daemon keeps the circuit: its cache is
// content-addressed and shared across callers.
func (s *remoteSession) Close() error {
	s.closed.Store(true)
	return nil
}

func (s *remoteSession) Run(ctx context.Context, req Request) (*Report, error) {
	if s.closed.Load() {
		return nil, api.NotFoundf("session closed: circuit %s released", s.info.ID)
	}
	rep, err := s.c.Simulate(ctx, api.SimRequest{Circuit: s.info.ID, Request: req})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func (s *remoteSession) RunBatch(ctx context.Context, reqs []Request) ([]*Report, error) {
	if s.closed.Load() {
		return nil, api.NotFoundf("session closed: circuit %s released", s.info.ID)
	}
	resp, err := s.c.SimulateBatch(ctx, api.BatchRequest{Circuit: s.info.ID, Requests: reqs})
	if err != nil {
		return nil, err
	}
	out := make([]*Report, len(resp.Reports))
	for i := range resp.Reports {
		out[i] = &resp.Reports[i]
	}
	return out, nil
}
