package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"halotis"
	"halotis/api"
	"halotis/internal/circ"
	"halotis/internal/netfmt"
	"halotis/internal/wire"
)

// Compile-time check: a *Cluster is a halotis.Backend, interchangeable
// with NewLocal and NewRemote behind the Session API.
var _ halotis.Backend = (*Cluster)(nil)

// Open places the circuit on the cluster and returns a session routed by
// its content hash. The circuit is serialized once, its content hash
// computed locally (placement needs no round trip and cannot disagree with
// the replicas — the hash is machine-independent), uploaded to the top-R
// replicas of its rendezvous ranking, and the serialized text retained so
// any future failover target can be repaired by re-upload.
func (c *Cluster) Open(ctx context.Context, ckt *halotis.Circuit) (halotis.Session, error) {
	if ckt == nil {
		return nil, api.InvalidRequestf("nil circuit")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, api.Canceled(err)
	}
	var text strings.Builder
	if err := netfmt.WriteCircuit(&text, ckt); err != nil {
		return nil, fmt.Errorf("serialize circuit: %w", err)
	}
	ir := circ.Compile(ckt)
	t := &circuitText{id: ir.Hash, text: text.String(), format: "net", name: ckt.Name}
	c.texts.Put(t.id, t)
	if _, err := c.place(ctx, t); err != nil {
		return nil, err
	}
	return &session{cl: c, t: t, info: api.InfoOf(ir)}, nil
}

// session is one opened circuit on the cluster. Safe for concurrent use;
// every run re-ranks candidates against current health, so a session
// survives replica failures for as long as any replica can serve it.
type session struct {
	cl     *Cluster
	t      *circuitText
	info   api.CircuitInfo
	closed atomic.Bool
}

// Circuit describes the opened circuit. The description is computed
// locally from the compiled IR, so it is identical to the Local backend's
// for the same circuit (the parity the conformance suite pins).
func (s *session) Circuit() api.CircuitInfo { return s.info }

// Close marks the session released; subsequent runs fail with
// ErrCircuitNotFound. Replica caches keep the circuit — it is
// content-addressed and shared, exactly as with the Remote backend.
func (s *session) Close() error {
	s.closed.Store(true)
	return nil
}

// Run routes one request to the best healthy replica of the circuit's
// placement set, with failover and upload-on-miss repair.
func (s *session) Run(ctx context.Context, req api.Request) (*api.Report, error) {
	if s.closed.Load() {
		return nil, api.NotFoundf("session closed: circuit %s released", s.info.ID)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	body, err := wire.AppendSimRequest(nil, &api.SimRequest{Circuit: s.info.ID, Request: req})
	if err != nil {
		return nil, api.InvalidRequestf("encode request: %v", err) // a non-finite float
	}
	data, err := s.cl.simulate(ctx, s.info.ID, s.t, body)
	if err != nil {
		return nil, err
	}
	var rep api.Report
	if err := wire.DecodeReport(data, &rep); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	return &rep, nil
}

// RunBatch scatters the requests across the healthy replicas holding the
// circuit and gathers reports back in request order (see scatterBatch).
func (s *session) RunBatch(ctx context.Context, reqs []api.Request) ([]*api.Report, error) {
	if s.closed.Load() {
		return nil, api.NotFoundf("session closed: circuit %s released", s.info.ID)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	reports, _, err := s.cl.scatterBatch(ctx, s.info.ID, s.t, reqs, false)
	return reports, err
}

// Compile-time check: cluster sessions support graceful batch degradation.
var _ halotis.PartialBatcher = (*session)(nil)

// RunBatchPartial is RunBatch with per-request failure isolation
// (halotis.PartialBatcher): a failed request or a dead chunk fills its
// error slots instead of canceling its siblings. Exactly one of
// reports[i], errs[i] is non-nil for each request.
func (s *session) RunBatchPartial(ctx context.Context, reqs []api.Request) ([]*api.Report, []error, error) {
	if s.closed.Load() {
		return nil, nil, api.NotFoundf("session closed: circuit %s released", s.info.ID)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return s.cl.scatterBatch(ctx, s.info.ID, s.t, reqs, true)
}
