package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"halotis/internal/circ"
	"halotis/internal/wave"
)

// This file is the kernel's one event loop: every run executes the Fig. 4
// algorithm of engine.go through one worker per circuit partition (see
// circ.Partition), each owning a lane. Partitions = 1 is one worker running
// inline on the caller's goroutine, with no goroutine and no mailbox; two or
// more run one goroutine per partition. Results are bit-identical for every
// partition count. Three properties combine to make that possible:
//
//   - Structural event order. Events are keyed by (time, global pin id), a
//     total order over live events that does not depend on which goroutine
//     scheduled them (see the event type in engine.go). Firing events in
//     that global order — regardless of which per-partition queue they sit
//     in — gives one result for every partition count.
//
//   - Acyclic boundary flow. circ.Partition guarantees every boundary net is
//     driven in a lower-numbered partition than all of its off-partition
//     listeners, so messages only flow forward and a partition only ever
//     waits on lower-numbered ones: no cycles, no deadlock.
//
//   - A conservative horizon. Each worker publishes a monotonically
//     non-decreasing clock — a (time, pin) key bounding every event it could
//     still fire or message it could still send. A worker fires only events
//     strictly below the minimum clock of its upstream partitions (its
//     horizon), so no message can retroactively affect anything it already
//     committed. The clock is published as two atomics (pin first, then
//     time; read time first, then pin), which a double-width read may only
//     ever under-estimate — stale reads are conservative, never unsafe. A
//     worker without upstreams (every one-lane run) has no horizon.
//
// Boundary messages carry {net, start, slew, v0, rising} — every field of
// wave.Transition that Crossing reads — so the receiving partition
// recomputes threshold-crossing times bit-identically to the driving
// partition's in-place computation. Messages for one net originate in
// exactly one partition and mailboxes preserve send order, so per-net
// truncation order is preserved too; pins of different nets carry disjoint
// state, so cross-net apply order is immaterial.
//
// Applying an incoming message eagerly (before local time reaches it) is
// equivalent to the one-lane interleaving: a message sent from an upstream
// fire at time t has start > t, can only cancel pending crossings at or
// after start, and can only schedule crossings after start — all strictly
// above the receiver's horizon, hence above anything it has fired.
//
// Shared engine state (waveforms, per-pin values and pending handles,
// per-gate records) is safe without locks because every slab index is owned
// by exactly one partition: nets by their driver's partition, pins and gate
// state by the gate's partition.

// MaxPartitions bounds Options.Partitions; requests above it are clamped.
const MaxPartitions = 64

// Auto-partitioning policy for Options.Partitions == 0: circuits below
// autoPartitionMinGates run one lane (its 0-alloc steady state is already
// the fastest path for circuits whose working set fits low cache levels),
// larger ones get one partition per autoPartitionGatesPer gates, bounded by
// GOMAXPROCS and autoPartitionMax.
const (
	autoPartitionMinGates = 50_000
	autoPartitionGatesPer = 25_000
	autoPartitionMax      = 8
)

// resolvePartitions maps the Partitions option to an effective worker count
// for a circuit of the given size.
func resolvePartitions(req, gates int) int {
	if req > 0 {
		if req > MaxPartitions {
			req = MaxPartitions
		}
		return req
	}
	if gates < autoPartitionMinGates {
		return 1
	}
	p := runtime.GOMAXPROCS(0)
	if m := gates / autoPartitionGatesPer; p > m {
		p = m
	}
	if p > autoPartitionMax {
		p = autoPartitionMax
	}
	if p < 1 {
		p = 1
	}
	return p
}

// boundaryMsg is one net transition crossing a partition boundary: the
// Transition fields Crossing reads, so the receiver reconstructs crossing
// times bit-identically.
type boundaryMsg struct {
	net    int32
	rising bool
	start  float64
	slew   float64
	v0     float64
}

// mailbox is an unbounded single-producer single-consumer buffer for one
// boundary edge. Unbounded is a correctness choice, not a convenience: a
// bounded channel would let a sender block on a receiver that is itself
// waiting on its horizon, reintroducing the deadlock the acyclic partition
// order eliminates. The receiver swaps in an empty buffer on every drain, so
// in steady state the two buffers ping-pong with no allocation.
type mailbox struct {
	mu  sync.Mutex
	buf []boundaryMsg
	hw  int // deepest the buffer grew between drains (profiling counter)
}

func (m *mailbox) send(msg boundaryMsg) {
	m.mu.Lock()
	m.buf = append(m.buf, msg)
	if len(m.buf) > m.hw {
		m.hw = len(m.buf)
	}
	m.mu.Unlock()
}

// swap exchanges the mailbox contents for the (empty) spare and returns the
// pending messages in send order.
func (m *mailbox) swap(spare []boundaryMsg) []boundaryMsg {
	m.mu.Lock()
	out := m.buf
	m.buf = spare
	m.mu.Unlock()
	return out
}

// partWorker runs one partition: its own lane, published clock and inbound
// mailboxes, over the parent engine's shared (index-disjoint) slabs.
type partWorker struct {
	e    *Engine
	pt   *circ.Partitioning
	part int32
	name string // "run" for one lane, "partition N" otherwise; names the worker in errors

	lane // this partition's queue, clock and counters

	// Published clock, split across two atomics. Non-negative float64 bit
	// patterns compare like the floats themselves, so the time is stored as
	// raw bits. Writers store pin then time; readers load time then pin —
	// every torn read then under-estimates the (monotone) clock, which is
	// conservative. See the file comment. watched marks a worker with a
	// downstream partition, the only kind whose clock anyone reads.
	clockTime atomic.Uint64
	clockPin  atomic.Uint64
	watched   bool

	ups    []*partWorker // upstream workers, parallel to pt.Incoming[part]
	inbox  []*mailbox    // inbound edge mailboxes, parallel to ups
	spare  [][]boundaryMsg
	outbox []*mailbox // by destination partition; nil where no edge
	sent   []int32    // scratch: destinations already messaged this emit

	err error

	// Profiling counters (see Profile). Plain fields owned by this worker,
	// counted unconditionally — both sit on cold paths (stalls, boundary
	// sends), never in the per-event loop — and materialized into
	// Result.Profile only when profiling is enabled.
	stallWaits   uint64
	mailboxSends uint64

	pub     uint64 // events already published to e.progress (see Engine.SetProgress)
	charged uint64 // events already charged to partRun.proc
}

// pubProgress flushes this worker's events since the last publish into the
// engine's attached progress counter; workers publish concurrently, each
// tracking its own high-water mark, so the shared counter stays exact.
func (w *partWorker) pubProgress() {
	if p := w.e.progress; p != nil {
		p.Add(w.st.EventsProcessed - w.pub)
		w.pub = w.st.EventsProcessed
	}
}

// partRun is an engine's reusable execution state for one requested
// partition count k: one worker per partition of pt. It is rebuilt only
// when the requested count changes.
type partRun struct {
	k       int
	pt      *circ.Partitioning
	workers []*partWorker
	pre     Stats         // stimulus-phase counters (applied single-threaded)
	proc    atomic.Uint64 // shared fired-event budget, charged every 64 events
	abort   atomic.Bool
}

func newPartRun(e *Engine, k int) *partRun {
	pt := e.ir.Partition(k)
	pr := &partRun{k: k, pt: pt, workers: make([]*partWorker, pt.K)}
	for i := range pr.workers {
		name := "run"
		if pt.K > 1 {
			name = fmt.Sprintf("partition %d", i)
		}
		pr.workers[i] = &partWorker{
			e:      e,
			pt:     pt,
			part:   int32(i),
			name:   name,
			outbox: make([]*mailbox, pt.K),
		}
	}
	for dst, w := range pr.workers {
		ins := pt.Incoming[dst]
		w.ups = make([]*partWorker, len(ins))
		w.inbox = make([]*mailbox, len(ins))
		w.spare = make([][]boundaryMsg, len(ins))
		for j, src := range ins {
			mb := &mailbox{}
			w.ups[j] = pr.workers[src]
			w.inbox[j] = mb
			pr.workers[src].outbox[dst] = mb
			pr.workers[src].watched = true
		}
	}
	return pr
}

func (pr *partRun) reset() {
	pr.pre = Stats{}
	pr.proc.Store(0)
	pr.abort.Store(false)
	for _, w := range pr.workers {
		w.q.Reset()
		w.now = 0
		w.st = Stats{}
		w.err = nil
		w.stallWaits = 0
		w.mailboxSends = 0
		w.pub = 0
		w.charged = 0
		if w.watched {
			w.clockPin.Store(0)
			w.clockTime.Store(0)
		}
		for _, mb := range w.inbox {
			mb.buf = mb.buf[:0] // no workers are running between runs
			mb.hw = 0
		}
	}
}

// run is every run's body, for every partition count: reset the engine and
// its lanes, apply the stimulus, run the workers — one lane inline on the
// caller's goroutine, more as one goroutine each — and assemble Stats,
// Result and Profile.
//
//halotis:noalloc
func (e *Engine) run(ctx context.Context, st Stimulus, tEnd float64, k int) (*Result, error) {
	//halotis:wallclock Result.Elapsed measures the run for stats; it never feeds simulated time
	start := time.Now()
	e.Reset(st)
	if e.part == nil || e.part.k != k {
		e.part = newPartRun(e, k)
	}
	pr := e.part
	pr.reset()
	e.applyStimulus(st, pr)

	if len(pr.workers) == 1 {
		w := pr.workers[0]
		w.err = w.run(ctx, pr, tEnd)
	} else {
		pr.runWorkers(ctx, tEnd)
	}

	total := pr.pre
	last := 0.0
	for _, w := range pr.workers {
		if w.err != nil {
			return nil, w.err
		}
		last = max(last, w.now)
		queued, _, removed := w.q.Stats()
		if w.st.EventsFiltered != removed {
			// The two counters track the same deletions through different
			// paths; disagreement means an engine bug.
			return nil, fmt.Errorf("sim: filtered-event accounting mismatch in %s: %d vs %d",
				w.name, w.st.EventsFiltered, removed)
		}
		total.EventsQueued += queued
		total.EventsProcessed += w.st.EventsProcessed
		total.EventsFiltered += w.st.EventsFiltered
		total.Evaluations += w.st.Evaluations
		total.Transitions += w.st.Transitions
		total.DegradedTransitions += w.st.DegradedTransitions
		total.FullyDegraded += w.st.FullyDegraded
	}
	// Workers charge the shared budget in batches, so a run can overrun
	// the limit by up to a batch per worker unnoticed; the exact total
	// decides.
	if total.EventsProcessed > e.opt.MaxEvents {
		return nil, fmt.Errorf("sim: event limit %d exceeded at t=%g ns (oscillation?)", e.opt.MaxEvents, last)
	}

	e.res = Result{
		Model: e.opt.Model,
		Stats: total,
		//halotis:wallclock Result.Elapsed measures the run for stats; it never feeds simulated time
		Elapsed: time.Since(start),
		EndTime: tEnd,
		ir:      e.ir,
		wfs:     e.wfs,
	}
	if e.profiling {
		e.res.Profile = pr.profile()
	}
	return &e.res, nil
}

// runWorkers runs each worker on its own goroutine and waits for all of
// them; a failing worker aborts the others.
func (pr *partRun) runWorkers(ctx context.Context, tEnd float64) {
	var wg sync.WaitGroup
	for _, w := range pr.workers {
		wg.Add(1)
		go func(w *partWorker) {
			defer wg.Done()
			if w.err = w.run(ctx, pr, tEnd); w.err != nil {
				pr.abort.Store(true)
			}
		}(w)
	}
	wg.Wait()
}

// profile materializes the workers' counters; the workers have joined, so
// no locks are needed.
func (pr *partRun) profile() *Profile {
	prof := &Profile{Partitions: pr.pt.K, Workers: make([]WorkerProfile, len(pr.workers))}
	for i, w := range pr.workers {
		hw := 0
		for _, mb := range w.inbox {
			hw = max(hw, mb.hw)
		}
		prof.Workers[i] = WorkerProfile{
			Partition:        int(w.part),
			EventsProcessed:  w.st.EventsProcessed,
			StallWaits:       w.stallWaits,
			MailboxSends:     w.mailboxSends,
			MailboxHighWater: hw,
		}
	}
	return prof
}

// applyStimulus emits the externally driven transitions onto the primary
// input nets in input-ID order, scheduling each receiver event in its
// owning partition's lane through the same reconciliation path gate outputs
// use. The order across inputs does not reach the result: events pop in
// (time, pin) order and no two input nets share a pin. It runs
// single-threaded before the workers start, so every partition begins with
// its externally driven events already in place and primary-input nets
// never generate boundary traffic.
//
//halotis:noalloc
func (e *Engine) applyStimulus(st Stimulus, pr *partRun) {
	ir := e.ir
	for _, net := range ir.Inputs {
		for _, edge := range st[ir.NetName[net]].Edges {
			tr := e.wfs[net].Add(edge.Time, edge.Slew, edge.Rising)
			pr.pre.Transitions++
			for _, pin := range ir.Fanout(net) {
				wk := pr.workers[pr.pt.GatePart[ir.Pins[pin].Gate]]
				e.reconcile(&wk.lane, pin, tr)
			}
		}
	}
}

// keyLess is the strict (time, pin) order all kernels fire events in.
func keyLess(t1 float64, p1 uint64, t2 float64, p2 uint64) bool {
	if t1 != t2 {
		return t1 < t2
	}
	return p1 < p2
}

// run is the worker main loop: read upstream clocks, drain inboxes, fire
// everything strictly below the horizon, publish the own clock, back off
// when blocked. The clock-then-drain order matters: messages from any
// upstream fire below a clock value are in the mailbox before that clock
// value is published, so draining after the read leaves nothing unseen
// below the horizon. A worker without upstreams fires its whole queue up
// to tEnd in one pass. It returns the worker's own failure; a sibling's
// abort returns nil.
//
//halotis:noalloc
func (w *partWorker) run(ctx context.Context, pr *partRun, tEnd float64) error {
	e := w.e
	// Flush the progress remainder on every exit path (completion, abort,
	// failure) so the attached counter converges on the exact event total.
	defer w.pubProgress()
	idle := 0
	for {
		if pr.abort.Load() {
			return nil
		}
		hT, hP := w.horizon()
		progressed := w.drainInboxes()

		for {
			t, pin, ok := w.q.PeekKey()
			if !ok || t > tEnd || !keyLess(t, pin, hT, hP) {
				break
			}
			if w.st.EventsProcessed&ctxCheckMask == 0 {
				w.pubProgress()
				if pr.abort.Load() {
					return nil
				}
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						return fmt.Errorf("sim: %s aborted at t=%g ns after %d events: %w",
							w.name, w.now, w.st.EventsProcessed, err)
					}
				}
				// Charge only events already fired: a charge ahead of the
				// work would fail runs that stay within the limit.
				total := pr.proc.Add(w.st.EventsProcessed - w.charged)
				w.charged = w.st.EventsProcessed
				if total > e.opt.MaxEvents {
					return fmt.Errorf("sim: event limit %d exceeded at t=%g ns (oscillation?)",
						e.opt.MaxEvents, w.now)
				}
			}
			h, t, ev, _ := w.q.Pop()
			if t < w.now {
				return fmt.Errorf("sim: causality violation in %s: event at %g before now %g",
					w.name, t, w.now)
			}
			w.now = t
			w.st.EventsProcessed++
			if out, start, slew, rising, ok := e.fire(&w.lane, h, ev); ok {
				w.emit(out, start, slew, rising)
			}
			if w.watched {
				w.publish(hT, hP)
			}
			progressed = true
		}

		if w.watched {
			w.publish(hT, hP)
		}
		if hT > tEnd {
			if t, _, ok := w.q.PeekKey(); !ok || t > tEnd {
				// Horizon and queue are both past the end of time: no
				// upstream can send anything <= tEnd anymore (everything
				// below the horizon read was drained above) and nothing
				// local remains. The clock just published is past tEnd
				// too, so downstream horizons are.
				return nil
			}
		}
		if progressed {
			idle = 0
		} else {
			if ctx != nil && ctx.Err() != nil {
				return fmt.Errorf("sim: %s aborted at t=%g ns after %d events: %w",
					w.name, w.now, w.st.EventsProcessed, ctx.Err())
			}
			w.stallWaits++
			backoff(idle)
			idle++
		}
	}
}

// horizon returns the minimum published clock over the upstream partitions:
// the strict upper bound on what this worker may fire. No upstreams means no
// bound.
func (w *partWorker) horizon() (float64, uint64) {
	hT, hP := math.Inf(1), ^uint64(0)
	for _, up := range w.ups {
		t := math.Float64frombits(up.clockTime.Load())
		p := up.clockPin.Load()
		if keyLess(t, p, hT, hP) {
			hT, hP = t, p
		}
	}
	return hT, hP
}

// publish advances the worker's clock to min(queue head, horizon): the
// smallest key this partition could still fire — and hence the smallest key
// any message it has yet to send could carry. Both inputs are monotone, so
// the published clock never regresses. Only a watched worker publishes: no
// one reads the clock of the last partition or of a one-lane run, so the
// callers skip it there.
func (w *partWorker) publish(hT float64, hP uint64) {
	t, p, ok := w.q.PeekKey()
	if !ok {
		t, p = math.Inf(1), 0
	}
	if keyLess(hT, hP, t, p) {
		t, p = hT, hP
	}
	w.clockPin.Store(p)
	w.clockTime.Store(math.Float64bits(t))
}

// drainInboxes applies every pending boundary message and reports whether
// there were any.
func (w *partWorker) drainInboxes() bool {
	e := w.e
	ir := e.ir
	progressed := false
	for i, mb := range w.inbox {
		msgs := mb.swap(w.spare[i][:0])
		for mi := range msgs {
			m := &msgs[mi]
			tr := wave.Transition{
				Start:  m.start,
				Slew:   m.slew,
				V0:     m.v0,
				Rising: m.rising,
				VDD:    ir.VDD,
				End:    math.Inf(1),
			}
			for _, pin := range ir.Fanout(m.net) {
				if w.pt.GatePart[ir.Pins[pin].Gate] != w.part {
					continue
				}
				e.reconcile(&w.lane, pin, &tr)
			}
			progressed = true
		}
		w.spare[i] = msgs[:0]
	}
	return progressed
}

// emit appends a transition to a net's waveform (the net is owned by this
// partition) and reconciles every fanout pin's pending event, implementing
// the insertion/deletion rule of the paper's Fig. 4 algorithm. A net with
// off-partition listeners reconciles its local pins and sends one message
// per off-partition destination instead; every other net (every net of a
// one-lane run) skips the per-pin partition lookup.
//
//halotis:noalloc
func (w *partWorker) emit(net int32, start, slew float64, rising bool) {
	e := w.e
	ir := e.ir
	tr := e.wfs[net].Add(start, slew, rising)
	w.st.Transitions++
	if !w.pt.Cross[net] {
		for _, pin := range ir.Fanout(net) {
			e.reconcile(&w.lane, pin, tr)
		}
		return
	}
	sent := w.sent[:0]
	for _, pin := range ir.Fanout(net) {
		dst := w.pt.GatePart[ir.Pins[pin].Gate]
		if dst == w.part {
			e.reconcile(&w.lane, pin, tr)
			continue
		}
		if slices.Contains(sent, dst) {
			continue
		}
		sent = append(sent, dst)
		w.mailboxSends++
		w.outbox[dst].send(boundaryMsg{net: net, rising: rising, start: start, slew: slew, v0: tr.V0})
	}
	w.sent = sent[:0]
}

// backoff yields while the horizon is stalled: a handful of scheduler yields
// first (essential at GOMAXPROCS=1, where the upstream producer can only run
// if we give up the processor), then escalating sleeps capped at 256µs so a
// long-stalled worker costs nothing measurable.
func backoff(n int) {
	if n < 8 {
		runtime.Gosched()
		return
	}
	shift := n - 8
	if shift > 8 {
		shift = 8
	}
	time.Sleep(time.Duration(1<<uint(shift)) * time.Microsecond)
}
