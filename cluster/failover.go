package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"halotis/api"
	"halotis/client"
	"halotis/internal/fanout"
	"halotis/internal/obs"
	"halotis/internal/obs/flight"
)

// Routing is one attempt loop, route. Reports are deterministic, so the
// first success from any replica is the answer, and the first attempt, a
// hedge and each failover are the same kind of attempt. Simulate, circuit
// lookup and each scatter chunk go through route; place does not, since
// it needs R successes, not the first.

// Error classification for routing. Three classes matter:
//
//   - terminal: deterministic outcomes (invalid request, oscillation
//     limits), caller cancellation, and expired deadline budgets —
//     retrying elsewhere would repeat the same answer or outlive the
//     caller, so return immediately.
//   - availability: transport failures, overload that survived the typed
//     client's bounded retry, and ErrCircuitNotFound (another replica may
//     hold the circuit, or upload-on-miss can repair this one) — advance
//     to the next candidate.
//   - transport (a subset of availability): no HTTP response at all —
//     additionally count against the replica's circuit breaker so
//     subsequent requests skip it until it recovers.
func isAvailability(err error) bool {
	if errors.Is(err, api.ErrCanceled) || errors.Is(err, api.ErrDeadlineExceeded) {
		return false
	}
	if errors.Is(err, errReplicaMismatch) {
		return false
	}
	if errors.Is(err, api.ErrOverloaded) || errors.Is(err, api.ErrCircuitNotFound) {
		return true
	}
	var ae *client.APIError
	return !errors.As(err, &ae) // non-HTTP failure: transport-level
}

// errReplicaMismatch marks a replica that assigned a different content
// hash to the same netlist text — a cell-library misconfiguration. It is
// terminal (failing over would hide a broken node) and not a health
// event (the node is alive, just wrong).
var errReplicaMismatch = errors.New("cluster: replica content-hash mismatch (library misconfiguration)")

func isTransport(err error) bool {
	var ae *client.APIError
	return isAvailability(err) && !errors.As(err, &ae)
}

// noteFailure applies passive health marking for one failed replica call:
// count against the replica's breaker only on a transport-level failure
// that was not caused by the caller's own context dying — a canceled
// request says nothing about the replica's health.
func (c *Cluster) noteFailure(ctx context.Context, r *replica, err error) {
	if isTransport(err) && ctx.Err() == nil {
		// Log with the request's context so the slog handler can correlate
		// the markdown with the trace that triggered it; the guard above
		// already ensured the context is still live.
		c.log.LogAttrs(ctx, slog.LevelWarn, "replica marked down (passive)",
			slog.String("replica", r.id),
			slog.String("addr", r.addr),
			slog.String("error", err.Error()))
		r.markDown()
	}
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// route is one routed call: it runs fn against the circuit's candidate
// replicas and returns the value of the first attempt that succeeds. All
// attempts run under one child of ctx and report to one channel, which
// route reads alongside the hedge timer; losers are canceled and awaited
// before route returns, so fn's value is the caller's alone.
//
// Candidates whose breaker refuses admission are skipped (with one forced
// attempt on the first candidate when every breaker refuses — availability
// beats strictness when there is nowhere else to go). prefer, when
// non-nil, is tried first and disables hedging (scatter chunks pin their
// assigned replica). Otherwise, when the first candidate has latency
// history and a budget token is free, a hedge is armed: if the first
// attempt has not answered within its replica's own tail quantile, the
// next candidate is raced against it, once.
//
// A terminal failure returns as-is (ErrCanceled once ctx is dead), and an
// availability failure advances to the next candidate — each only once no
// other attempt is in flight, since an in-flight hedge may still succeed.
// Transport failures open the replica's breaker.
func route[T any](c *Cluster, ctx context.Context, id string, t *circuitText, prefer *replica, fn func(context.Context, *replica) (T, error)) (T, error) {
	c.hbudget.earn()
	cands := c.candidates(id)
	if prefer != nil {
		reordered := make([]*replica, 0, len(cands))
		reordered = append(reordered, prefer)
		for _, r := range cands {
			if r != prefer {
				reordered = append(reordered, r)
			}
		}
		cands = reordered
	}

	// Breaker admission pass.
	now := time.Now()
	tryList := make([]*replica, 0, len(cands))
	for _, r := range cands {
		ok, tr, changed := r.br.allow(now)
		if changed {
			r.emit(tr, "cooldown elapsed; trial admitted")
		}
		if ok {
			tryList = append(tryList, r)
		} else {
			c.met.breakerSkips.Add(1)
		}
	}
	if len(tryList) == 0 {
		tryList = cands[:1]
	}

	var hedge <-chan time.Time
	if !c.hedge.Disabled && prefer == nil && len(tryList) >= 2 {
		if delay, ok := tryList[0].lat.hedgeDelay(c.hedge); ok && c.hbudget.take() {
			timer := time.NewTimer(delay)
			defer timer.Stop()
			hedge = timer.C
		}
	}

	type attempt struct {
		v      T
		err    error
		r      *replica
		ctx    context.Context
		hedged bool
	}
	// Every candidate is launched at most once, so the buffer holds every
	// send: no attempt blocks on its result after route stops reading.
	results := make(chan attempt, len(tryList))
	actx, cancel := context.WithCancel(ctx)
	next, inflight := 0, 0
	defer func() {
		cancel()
		for ; inflight > 0; inflight-- {
			<-results
		}
	}()
	launch := func(hedged bool) {
		r := tryList[next]
		next++
		inflight++
		ctx := actx
		var hsp *obs.Span
		if hedged {
			ctx, hsp = obs.Start(ctx, "router.hedge")
			hsp.SetAttr("replica", r.id)
		}
		go func() {
			v, err := tryReplica(c, ctx, r, t, fn)
			hsp.FailOrCancel(ctx, err)
			hsp.End()
			results <- attempt{v, err, r, ctx, hedged}
		}()
	}

	launch(false)
	var zero T
	var lastErr, terminal error
	for {
		var a attempt
		select {
		case <-hedge:
			// The first attempt is slower than its replica's tail
			// estimate: race the next candidate against it.
			hedge = nil
			c.met.hedges.Add(1)
			if n := flight.NoteFrom(ctx); n != nil {
				// Single writer: the request's own goroutine, which the
				// node shell reads the note from once the handler returns.
				n.Hedged = true
			}
			launch(true)
			continue
		case a = <-results:
		}
		inflight--
		hedge = nil // a hedge races only the first attempt
		if a.err == nil {
			if a.hedged {
				c.met.hedgeWins.Add(1)
			}
			return a.v, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return zero, api.Canceled(cerr)
		}
		if isAvailability(a.err) {
			c.noteFailure(a.ctx, a.r, a.err)
			lastErr = a.err
		} else {
			terminal = a.err
		}
		if inflight > 0 {
			continue
		}
		if terminal != nil {
			return zero, terminal
		}
		if next == len(tryList) {
			return zero, fmt.Errorf("cluster: all %d replicas failed for circuit %s: %w", len(cands), shortID(id), lastErr)
		}
		// A not-found advance is an ordinary miss, not a failover: an
		// unknown ID probing N replicas is not N-1 node failures.
		if !errors.Is(lastErr, api.ErrCircuitNotFound) {
			c.met.failovers.Add(1)
		}
		launch(false)
	}
}

// tryReplica is one candidate attempt, including the upload-on-miss
// repair: a replica that answers ErrCircuitNotFound (evicted, restarted,
// or a failover target that never saw the circuit) gets the serialized
// netlist re-uploaded — content-addressed, so the repaired ID is
// guaranteed identical — and one retry. A success feeds the replica's
// latency tracker (the hedge trigger) and closes its breaker.
func tryReplica[T any](c *Cluster, ctx context.Context, r *replica, t *circuitText, fn func(context.Context, *replica) (T, error)) (T, error) {
	// One attempt = one span; the replica client's client.send (and the
	// replica's own server spans, via the propagated header) nest under it.
	ctx, sp := obs.Start(ctx, "router.attempt")
	sp.SetAttr("replica", r.id)
	begin := time.Now()
	v, err := fn(ctx, r)
	if err != nil && errors.Is(err, api.ErrCircuitNotFound) && t != nil {
		c.met.reuploads.Add(1)
		sp.SetAttr("reupload", "true")
		if _, uerr := c.uploadTo(ctx, r, t); uerr == nil {
			begin = time.Now()
			v, err = fn(ctx, r)
		} else {
			err = uerr
		}
	}
	if err == nil {
		r.served.Add(1)
		r.lat.record(time.Since(begin))
		r.markUp("request ok")
	}
	sp.FailOrCancel(ctx, err) // a canceled loser did not fail
	sp.End()
	return v, err
}

// simulate routes one simulation run, given as the JSON body of a
// SimRequest naming circuit id, and returns the winning replica's report
// body unparsed. Every attempt (the first, a hedge, each failover and the
// retry after an upload-on-miss) sends the same body. The router's
// /v1/simulate relays the result; the Backend face's session.Run decodes it.
func (c *Cluster) simulate(ctx context.Context, id string, t *circuitText, body []byte) ([]byte, error) {
	return route(c, ctx, id, t, nil, func(ctx context.Context, r *replica) ([]byte, error) {
		return r.c.SimulateJSON(ctx, body)
	})
}

// uploadTo uploads a circuit's text to one replica and checks the replica
// agrees on the content hash (a mismatch means the replica runs a
// different cell library — a misconfiguration worth failing loudly on).
func (c *Cluster) uploadTo(ctx context.Context, r *replica, t *circuitText) (*api.UploadResponse, error) {
	resp, err := r.c.UploadCircuit(ctx, api.UploadRequest{Name: t.name, Format: t.format, Netlist: t.text})
	if err != nil {
		return nil, err
	}
	if resp.ID != t.id {
		return nil, fmt.Errorf("%w: replica %s assigned circuit ID %s, expected %s",
			errReplicaMismatch, r.id, shortID(resp.ID), shortID(t.id))
	}
	return resp, nil
}

// place uploads a circuit to its placement set: the first R candidates
// that accept it (healthy primaries first, falling down the ranking when
// they are unavailable). At least one replica must accept; the first
// successful response is returned.
func (c *Cluster) place(ctx context.Context, t *circuitText) (*api.UploadResponse, error) {
	cands := c.candidates(t.id)
	var first *api.UploadResponse
	var lastErr error
	placed := 0
	for _, r := range cands {
		if placed >= c.rf {
			break
		}
		resp, err := c.uploadTo(ctx, r, t)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, api.Canceled(cerr)
			}
			if !isAvailability(err) {
				return nil, err
			}
			c.noteFailure(ctx, r, err)
			lastErr = err
			continue
		}
		placed++
		if first == nil {
			first = resp
		}
	}
	if first == nil {
		return nil, fmt.Errorf("cluster: no replica accepted circuit %s: %w", shortID(t.id), lastErr)
	}
	return first, nil
}

// scatterBatch fans a batch across the healthy members of the circuit's
// placement set: contiguous chunks, one per target replica, merged back in
// request order. Each chunk keeps the full failover machinery (its
// assigned replica is just the first candidate), so a replica dying
// mid-batch moves its chunk, not the whole batch.
//
// By default the first failure cancels the remaining chunks and comes back
// as err, the root cause, matching Local and Remote RunBatch semantics.
// With partial (BatchOptions.AllowPartial) failures are isolated instead:
// replicas are asked for partial results themselves, so a single bad
// request inside a chunk surfaces alone, and a chunk failure fills its
// slots' error entries without canceling its siblings. Either way, when
// err is nil, exactly one of reports[i], errs[i] is non-nil for each
// request — a chunk that never started holds the cancellation.
func (c *Cluster) scatterBatch(ctx context.Context, id string, t *circuitText, reqs []api.Request, partial bool) ([]*api.Report, []error, error) {
	n := len(reqs)
	reports, errs := make([]*api.Report, n), make([]error, n)
	if n == 0 {
		return reports, errs, nil
	}
	targets := c.healthyPrimaries(id)
	if len(targets) == 0 {
		targets = c.candidates(id)[:1]
	}
	if len(targets) > n {
		targets = targets[:n]
	}
	k := len(targets)
	span := func(ci int) (lo, hi int) { return ci * n / k, (ci + 1) * n / k }
	var opts *api.BatchOptions
	if partial {
		opts = &api.BatchOptions{AllowPartial: true}
	}

	chunkErrs := fanout.Each(ctx, k, k, !partial, func(ctx context.Context, ci int) error {
		lo, hi := span(ci)
		chunk := reqs[lo:hi]
		resp, err := route(c, ctx, id, t, targets[ci], func(ctx context.Context, r *replica) (*api.BatchResponse, error) {
			resp, err := r.c.SimulateBatch(ctx, api.BatchRequest{Circuit: id, Requests: chunk, Options: opts})
			if err == nil && len(resp.Reports) != len(chunk) {
				return nil, fmt.Errorf("replica %s returned %d reports for %d requests", r.id, len(resp.Reports), len(chunk))
			}
			return resp, err
		})
		if err != nil {
			return err
		}
		for j := range resp.Reports {
			if j < len(resp.Errors) && resp.Errors[j] != nil {
				errs[lo+j] = resp.Errors[j].Err()
			} else {
				reports[lo+j] = &resp.Reports[j]
			}
		}
		return nil
	})
	for ci, err := range chunkErrs {
		if err == nil {
			continue
		}
		if err == context.Canceled || err == context.DeadlineExceeded {
			// fanout.Each leaves a never-started chunk's context error
			// bare; type it like a chunk canceled mid-flight.
			err = api.Canceled(err)
		}
		lo, hi := span(ci)
		if !partial {
			err = fmt.Errorf("requests[%d..%d]: %w", lo, hi-1, err)
		}
		chunkErrs[ci] = err
		for j := lo; j < hi; j++ {
			reports[j], errs[j] = nil, err
		}
	}
	if !partial {
		if _, err := api.FirstFailure(chunkErrs); err != nil {
			return nil, nil, err
		}
	}
	return reports, errs, nil
}
