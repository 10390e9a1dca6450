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

// This file is the partitioned parallel kernel: the same Fig. 4 algorithm as
// engine.go, executed by one worker goroutine per circuit partition (see
// circ.Partition), bit-identical to the sequential kernel for any partition
// count. Three properties combine to make that possible:
//
//   - Structural event order. Events are keyed by (time, global pin id), a
//     total order over live events that does not depend on which goroutine
//     scheduled them (see the event type in engine.go). Firing events in
//     that global order — regardless of which per-partition queue they sit
//     in — reproduces the sequential kernel exactly.
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
//     ever under-estimate — stale reads are conservative, never unsafe.
//
// Boundary messages carry {net, start, slew, v0, rising} — every field of
// wave.Transition that Crossing reads — so the receiving partition
// recomputes threshold-crossing times bit-identically to the sequential
// kernel's in-place computation. Messages for one net originate in exactly
// one partition and mailboxes preserve send order, so per-net truncation
// order is preserved too; pins of different nets carry disjoint state, so
// cross-net apply order is immaterial.
//
// Applying an incoming message eagerly (before local time reaches it) is
// equivalent to the sequential interleaving: a message sent from an upstream
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
// autoPartitionMinGates stay on the sequential kernel (its 0-alloc steady
// state is already the fastest path for circuits whose working set fits low
// cache levels), larger ones get one partition per autoPartitionGatesPer
// gates, bounded by GOMAXPROCS and autoPartitionMax.
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

// partWorker runs one partition: its own event queue, published clock and
// inbound mailboxes, over the parent engine's shared (index-disjoint) slabs.
type partWorker struct {
	e    *Engine
	pt   *circ.Partitioning
	part int32

	lane // this partition's queue, clock and counters

	// Published clock, split across two atomics. Non-negative float64 bit
	// patterns compare like the floats themselves, so the time is stored as
	// raw bits. Writers store pin then time; readers load time then pin —
	// every torn read then under-estimates the (monotone) clock, which is
	// conservative. See the file comment.
	clockTime atomic.Uint64
	clockPin  atomic.Uint64

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

// partRun is an engine's reusable partitioned-execution state for one
// partition count; rebuilt only when the requested count changes.
type partRun struct {
	pt      *circ.Partitioning
	workers []*partWorker
	pre     Stats         // stimulus-phase counters (applied single-threaded)
	proc    atomic.Uint64 // shared fired-event budget, charged every 64 events
	abort   atomic.Bool
}

func newPartRun(e *Engine, pt *circ.Partitioning) *partRun {
	k := pt.K
	pr := &partRun{pt: pt, workers: make([]*partWorker, k)}
	for i := 0; i < k; i++ {
		pr.workers[i] = &partWorker{
			e:      e,
			pt:     pt,
			part:   int32(i),
			outbox: make([]*mailbox, k),
		}
	}
	for dst := 0; dst < k; dst++ {
		w := pr.workers[dst]
		ins := pt.Incoming[dst]
		w.ups = make([]*partWorker, len(ins))
		w.inbox = make([]*mailbox, len(ins))
		w.spare = make([][]boundaryMsg, len(ins))
		for j, src := range ins {
			mb := &mailbox{}
			w.ups[j] = pr.workers[src]
			w.inbox[j] = mb
			pr.workers[src].outbox[dst] = mb
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
		w.clockPin.Store(0)
		w.clockTime.Store(0)
		for _, mb := range w.inbox {
			mb.buf = mb.buf[:0] // no workers are running between runs
			mb.hw = 0
		}
	}
}

// runPartitioned is RunContext's parallel path; the caller already resolved
// pt with K > 1.
func (e *Engine) runPartitioned(ctx context.Context, st Stimulus, tEnd float64, pt *circ.Partitioning) (*Result, error) {
	//halotis:wallclock Result.Elapsed measures the run for stats; it never feeds simulated time
	start := time.Now()
	e.Reset(st)
	if e.part == nil || e.part.pt != pt {
		e.part = newPartRun(e, pt)
	}
	pr := e.part
	pr.reset()
	e.applyStimulusPartitioned(st, pr)

	var wg sync.WaitGroup
	for _, w := range pr.workers {
		wg.Add(1)
		go func(w *partWorker) {
			defer wg.Done()
			w.run(ctx, pr, tEnd)
		}(w)
	}
	wg.Wait()

	total := pr.pre
	last := 0.0
	for _, w := range pr.workers {
		last = max(last, w.now)
		queued, _, removed := w.q.Stats()
		if w.err == nil && w.st.EventsFiltered != removed {
			w.err = fmt.Errorf("sim: partition %d filtered-event accounting mismatch: %d vs %d",
				w.part, w.st.EventsFiltered, removed)
		}
		total.EventsQueued += queued
		total.EventsProcessed += w.st.EventsProcessed
		total.EventsFiltered += w.st.EventsFiltered
		total.Evaluations += w.st.Evaluations
		total.Transitions += w.st.Transitions
		total.DegradedTransitions += w.st.DegradedTransitions
		total.FullyDegraded += w.st.FullyDegraded
	}
	for _, w := range pr.workers {
		if w.err != nil {
			return nil, w.err
		}
	}
	// Workers charge the shared budget in batches, so together they can
	// overrun the limit by up to a batch each unnoticed; the exact total
	// decides, as it does in the sequential kernel.
	if total.EventsProcessed > e.opt.MaxEvents {
		return nil, fmt.Errorf("sim: event limit %d exceeded at t=%g ns (oscillation?)", e.opt.MaxEvents, last)
	}

	e.st = total
	e.res = Result{
		Model: e.opt.Model,
		Stats: e.st,
		//halotis:wallclock Result.Elapsed measures the run for stats; it never feeds simulated time
		Elapsed: time.Since(start),
		EndTime: tEnd,
		ir:      e.ir,
		wfs:     e.wfs,
	}
	if e.profiling {
		prof := &Profile{Partitions: pt.K, Workers: make([]WorkerProfile, len(pr.workers))}
		for i, w := range pr.workers {
			hw := 0
			for _, mb := range w.inbox {
				if mb.hw > hw { // workers have joined; no locks needed
					hw = mb.hw
				}
			}
			prof.Workers[i] = WorkerProfile{
				Partition:        int(w.part),
				EventsProcessed:  w.st.EventsProcessed,
				StallWaits:       w.stallWaits,
				MailboxSends:     w.mailboxSends,
				MailboxHighWater: hw,
			}
		}
		e.res.Profile = prof
	}
	return &e.res, nil
}

// applyStimulusPartitioned mirrors applyStimulus, routing each scheduled
// crossing to its owning partition's queue. It runs single-threaded before
// the workers start, so every partition begins with its externally driven
// events already in place and primary-input nets never generate boundary
// traffic.
func (e *Engine) applyStimulusPartitioned(st Stimulus, pr *partRun) {
	ir := e.ir
	e.names = e.names[:0]
	for name := range st {
		e.names = append(e.names, name)
	}
	slices.Sort(e.names)
	for _, name := range e.names {
		w := st[name]
		net := ir.NetID(name)
		for _, edge := range w.Edges {
			slew := edge.Slew
			if slew <= 0 {
				slew = DefaultInputSlew
			}
			tr := e.wfs[net].Add(edge.Time, slew, edge.Rising)
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
// below the horizon.
func (w *partWorker) run(ctx context.Context, pr *partRun, tEnd float64) {
	e := w.e
	// Flush the progress remainder on every exit path (completion, abort,
	// failure) so the attached counter converges on the exact event total.
	defer w.pubProgress()
	idle := 0
	for {
		if pr.abort.Load() {
			return
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
					return
				}
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						w.fail(pr, fmt.Errorf("sim: partition %d aborted at t=%g ns after %d events: %w",
							w.part, w.now, w.st.EventsProcessed, err))
						return
					}
				}
				// Charge only events already fired: a charge ahead of the
				// work would fail runs that stay within the limit.
				total := pr.proc.Add(w.st.EventsProcessed - w.charged)
				w.charged = w.st.EventsProcessed
				if total > e.opt.MaxEvents {
					w.fail(pr, fmt.Errorf("sim: event limit %d exceeded at t=%g ns (oscillation?)",
						e.opt.MaxEvents, w.now))
					return
				}
			}
			h, t, ev, _ := w.q.Pop()
			if t < w.now {
				w.fail(pr, fmt.Errorf("sim: partition %d causality violation: event at %g before now %g",
					w.part, t, w.now))
				return
			}
			w.now = t
			w.st.EventsProcessed++
			if out, start, slew, rising, ok := e.fire(&w.lane, h, ev); ok {
				w.emit(out, start, slew, rising)
			}
			w.publish(hT, hP)
			progressed = true
		}

		w.publish(hT, hP)
		if hT > tEnd {
			if t, _, ok := w.q.PeekKey(); !ok || t > tEnd {
				// Horizon and queue are both past the end of time: no
				// upstream can send anything <= tEnd anymore (everything
				// below the horizon read was drained above) and nothing
				// local remains. Leave the clock at +Inf for downstream.
				w.clockPin.Store(0)
				w.clockTime.Store(math.Float64bits(math.Inf(1)))
				return
			}
		}
		if progressed {
			idle = 0
		} else {
			if ctx != nil && ctx.Err() != nil {
				w.fail(pr, fmt.Errorf("sim: partition %d aborted at t=%g ns after %d events: %w",
					w.part, w.now, w.st.EventsProcessed, ctx.Err()))
				return
			}
			w.stallWaits++
			backoff(idle)
			idle++
		}
	}
}

func (w *partWorker) fail(pr *partRun, err error) {
	w.err = err
	pr.abort.Store(true)
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
// the published clock never regresses.
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

// emit is the partitioned counterpart of Engine.emit: append the transition
// to the net's waveform (the net is owned by this partition), reconcile
// local fanout pins directly and send one message per off-partition
// destination.
func (w *partWorker) emit(net int32, start, slew float64, rising bool) {
	e := w.e
	ir := e.ir
	tr := e.wfs[net].Add(start, slew, rising)
	w.st.Transitions++
	sent := w.sent[:0]
	for _, pin := range ir.Fanout(net) {
		dst := w.pt.GatePart[ir.Pins[pin].Gate]
		if dst == w.part {
			e.reconcile(&w.lane, pin, tr)
			continue
		}
		dup := false
		for _, s := range sent {
			if s == dst {
				dup = true
				break
			}
		}
		if dup {
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
