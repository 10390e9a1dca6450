package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"halotis/internal/circ"
	"halotis/internal/delay"
	"halotis/internal/eventq"
	"halotis/internal/netlist"
	"halotis/internal/wave"
)

// event is the queue payload: a threshold crossing at one gate input pin,
// identified by its flat global pin id. The payload is a small value type so
// the arena queue stores it inline with no per-event allocation.
//
// Events are ordered by (time, pin id) — the pin id, not the insertion
// sequence, breaks time ties. The order is total because two live crossings
// never share a pin (the engine keeps at most one pending event per pin),
// and it is structural: a property of the scheduled set alone, independent
// of scheduling order. That is what lets the partitioned kernel, whose
// partitions schedule concurrently into separate queues, reproduce the
// sequential kernel's event order bit-for-bit.
type event struct {
	pin    int32
	rising bool
	// slew of the transition that caused the crossing; it becomes the
	// tau_in of the receiving gate's delay evaluation.
	slew float64
}

// Engine is the reusable HALOTIS simulation kernel. Unlike the one-shot
// Simulator, an Engine may run any number of stimuli over its circuit: each
// Run (or explicit Reset) reinitializes the mutable state — waveforms, gate
// records, the event queue — in place, retaining all storage capacity. After
// a warm-up run has grown the buffers to a workload's high-water mark,
// subsequent runs of comparable workloads perform zero heap allocations.
//
// An Engine is not safe for concurrent use; for parallel workloads run one
// engine per goroutine over a shared circuit (see RunBatch).
//
// The Result returned by Run aliases the engine's waveform storage and is
// valid only until the next Run or Reset; call Result.Detach to keep it.
type Engine struct {
	ir  *circ.Compiled
	opt Options

	lane // the sequential kernel's queue, clock and counters

	// wfs holds one waveform per net ID, their transitions carved from one
	// slab (see wave.NewSlab), reset in place.
	wfs []wave.Waveform

	// Mutable per-pin slabs, indexed by global pin id (see circ.Compiled).
	inVals  []bool          // current logic value at each gate input pin
	pending []eventq.Handle // scheduled-but-unfired crossing per pin

	gates []gateState // mutable per-gate record, indexed by IR gate index

	netVals []bool   // scratch for the settled initial-state evaluation
	names   []string // scratch for deterministic stimulus ordering

	res Result // reused result storage returned by Run

	part      *partRun // partitioned-execution state, built on first use
	profiling bool     // materialize Result.Profile (see SetProfiling)

	progress    *atomic.Uint64 // live event counter, published every 64 pops (see SetProgress)
	progressPub uint64         // events already published to progress this run
}

// lane is the state one event loop owns: its event queue, its simulated
// clock and its counters. The sequential kernel runs one lane, the
// partitioned kernel one per worker; both drive the same Fig. 4 body
// (Engine.reconcile and Engine.fire) against their lane.
type lane struct {
	q   eventq.ArenaQueue[event]
	now float64
	st  Stats
}

// gateState is the mutable per-gate record fire reads and writes.
type gateState struct {
	lastOutStart float64 // start of the most recent output transition; -Inf before it
	target       bool    // logic value the output is at or heading toward
}

// transitionChunk is the number of transition slots each net's waveform is
// given in the engine's shared slab. On the 100k-gate random-DAG family
// with 3-vector random stimuli (8 seeds on one engine) a net records 1.06
// transitions per run on average and 94% of nets never exceed 4 in any run;
// the rest grow by append on a warm-up run and keep that capacity.
const transitionChunk = 4

// NewEngine prepares a reusable engine for the circuit.
func NewEngine(ckt *netlist.Circuit, opt Options) *Engine {
	opt.setDefaults()
	return newEngineFromIR(circ.Compile(ckt), opt)
}

// NewEngineFromIR prepares a reusable engine directly over a compiled IR,
// for callers (the batch runner, the service's engine pools) that hold the
// IR already and must not pay a netlist lookup per engine.
func NewEngineFromIR(ir *circ.Compiled, opt Options) *Engine {
	opt.setDefaults()
	return newEngineFromIR(ir, opt)
}

func newEngineFromIR(ir *circ.Compiled, opt Options) *Engine {
	numPins := ir.NumPins()
	e := &Engine{
		ir:        ir,
		opt:       opt,
		wfs:       wave.NewSlab(ir.VDD, ir.NumNets(), transitionChunk),
		inVals:    make([]bool, numPins),
		pending:   make([]eventq.Handle, numPins),
		gates:     make([]gateState, ir.NumGates()),
		netVals:   make([]bool, ir.NumNets()),
		profiling: opt.Profile,
	}
	return e
}

// Circuit returns the circuit the engine simulates.
func (e *Engine) Circuit() *netlist.Circuit { return e.ir.Circuit }

// IR returns the compiled circuit representation the engine runs against.
func (e *Engine) IR() *circ.Compiled { return e.ir }

// Reset reinitializes the engine for a new run of the given stimulus without
// reallocating: waveforms are rewound to the settled boolean solution of the
// stimulus's initial input levels, gate records are refilled, the event queue
// is emptied with its arena intact, and all counters restart.
//
//halotis:noalloc
func (e *Engine) Reset(st Stimulus) {
	ir := e.ir

	// Settled boolean solution of the initial input levels. Filling the
	// per-pin inVals slab here doubles as the gate-state initialization.
	for _, in := range ir.Inputs {
		e.netVals[in] = st[ir.NetName[in]].Init
	}
	for _, gid := range ir.LevelOrder {
		g := &ir.Gates[gid]
		a, b := g.Pins()
		for p := a; p < b; p++ {
			e.inVals[p] = e.netVals[ir.PinNet[p]]
		}
		e.netVals[g.Out] = g.Kind.Eval(e.inVals[a:b])
	}

	for i := range e.wfs {
		v0 := 0.0
		if e.netVals[i] {
			v0 = ir.VDD
		}
		e.wfs[i].Reset(v0)
	}

	for g := range e.gates {
		e.gates[g] = gateState{lastOutStart: math.Inf(-1), target: e.netVals[ir.Gates[g].Out]}
	}
	for p := range e.pending {
		e.pending[p] = eventq.NoHandle
	}

	e.q.Reset()
	e.now = 0
	e.st = Stats{}
	e.progressPub = 0
}

// ctxCheckMask batches the cancellation check of RunContext: the context is
// consulted when EventsProcessed & ctxCheckMask == 0, i.e. before the first
// pop and every 64 pops after, keeping the per-event cost of cancellation
// support at one predictable branch.
const ctxCheckMask = 63

// Run validates and simulates one stimulus until no event at or before tEnd
// remains. It may be called repeatedly; each call resets the engine state in
// place first. The returned Result aliases engine storage and is invalidated
// by the next Run or Reset — Detach it to keep it. Run honors the engine
// options' Ctx when one was set; RunContext takes one explicitly.
//
//halotis:noalloc
func (e *Engine) Run(st Stimulus, tEnd float64) (*Result, error) {
	return e.RunContext(e.opt.Ctx, st, tEnd)
}

// RunContext is Run with cancellation: the context's deadline or
// cancellation aborts the event loop at event-pop granularity (checked every
// 64 pops), returning an error that wraps ctx.Err(). A nil ctx means no
// cancellation and adds no per-event cost.
//
//halotis:noalloc
func (e *Engine) RunContext(ctx context.Context, st Stimulus, tEnd float64) (*Result, error) {
	if err := st.Validate(e.ir.InputSet); err != nil {
		return nil, err
	}
	if k := resolvePartitions(e.opt.Partitions, e.ir.NumGates()); k > 1 {
		if pt := e.ir.Partition(k); pt.K > 1 {
			return e.runPartitioned(ctx, st, tEnd, pt)
		}
	}
	//halotis:wallclock Result.Elapsed measures the run for stats; it never feeds simulated time
	start := time.Now()
	e.Reset(st)
	e.applyStimulus(st)

	for {
		if e.st.EventsProcessed&ctxCheckMask == 0 {
			e.publishProgress()
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("sim: run aborted at t=%g ns after %d events: %w",
						e.now, e.st.EventsProcessed, err)
				}
			}
		}
		tNext, ok := e.q.PeekTime()
		if !ok || tNext > tEnd {
			break
		}
		h, t, ev, _ := e.q.Pop()
		if t < e.now {
			e.publishProgress()
			return nil, fmt.Errorf("sim: causality violation: event at %g before now %g", t, e.now)
		}
		e.now = t
		e.st.EventsProcessed++
		if e.st.EventsProcessed > e.opt.MaxEvents {
			e.publishProgress()
			return nil, fmt.Errorf("sim: event limit %d exceeded at t=%g ns (oscillation?)", e.opt.MaxEvents, e.now)
		}
		if out, start, slew, rising, ok := e.fire(&e.lane, h, ev); ok {
			e.emit(out, start, slew, rising)
		}
	}
	e.publishProgress()

	//halotis:wallclock Result.Elapsed measures the run for stats; it never feeds simulated time
	elapsed := time.Since(start)
	queued, _, removed := e.q.Stats()
	e.st.EventsQueued = queued
	if e.st.EventsFiltered != removed {
		// The two counters track the same deletions through different
		// paths; disagreement means an engine bug.
		return nil, fmt.Errorf("sim: filtered-event accounting mismatch: %d vs %d", e.st.EventsFiltered, removed)
	}
	e.res = Result{
		Model:   e.opt.Model,
		Stats:   e.st,
		Elapsed: elapsed,
		EndTime: tEnd,
		ir:      e.ir,
		wfs:     e.wfs,
	}
	if e.profiling {
		// The sequential kernel is one "worker" with no partition
		// boundaries to stall on or message across.
		//halotis:alloc profiling is opt-in; the pinned zero-alloc steady state runs with it off
		e.res.Profile = &Profile{
			Partitions: 1,
			Workers: []WorkerProfile{{
				Partition:       0,
				EventsProcessed: e.st.EventsProcessed,
			}},
		}
	}
	return &e.res, nil
}

// applyStimulus emits the externally driven transitions onto the primary
// input nets in deterministic (sorted-name) order, scheduling receiver
// events through the same reconciliation path gate outputs use.
//
//halotis:noalloc
func (e *Engine) applyStimulus(st Stimulus) {
	e.names = e.names[:0]
	for name := range st {
		e.names = append(e.names, name)
	}
	slices.Sort(e.names)
	for _, name := range e.names {
		w := st[name]
		net := e.ir.NetID(name)
		for _, edge := range w.Edges {
			slew := edge.Slew
			if slew <= 0 {
				slew = DefaultInputSlew
			}
			e.emit(net, edge.Time, slew, edge.Rising)
		}
	}
}

// emit appends a transition to a net's waveform and reconciles every fanout
// pin's pending event, implementing the insertion/deletion rule of the
// paper's Fig. 4 algorithm.
//
//halotis:noalloc
func (e *Engine) emit(net int32, start, slew float64, rising bool) {
	tr := e.wfs[net].Add(start, slew, rising)
	e.st.Transitions++
	for _, pin := range e.ir.Fanout(net) {
		e.reconcile(&e.lane, pin, tr)
	}
}

// reconcile applies a new transition tr on a pin's net to the pin's pending
// event in lane l's queue: rules 1 and 2 of the paper's Fig. 4. Both
// kernels call it — the sequential one for every fanout pin, the
// partitioned one for the pins its worker owns.
//
//halotis:noalloc
func (e *Engine) reconcile(l *lane, pin int32, tr *wave.Transition) {
	pending := &e.pending[pin]
	// Rule 1: a pending crossing pre-empted by this truncation (its
	// crossing time is at or after the new ramp's start) never happens;
	// delete it from the queue.
	if h := *pending; h != eventq.NoHandle {
		if pt, live := l.q.TimeOf(h); !live {
			*pending = eventq.NoHandle
		} else if pt >= tr.Start {
			l.q.Remove(h)
			l.st.EventsFiltered++
			*pending = eventq.NoHandle
		}
	}
	// Rule 2: schedule the new ramp's crossing of this pin's VT, if the
	// ramp crosses at all. A ramp that starts on the far side of VT (a
	// runt that never reached it) schedules nothing — the pulse is
	// filtered at this input.
	ct, ok := tr.Crossing(e.ir.Pins[pin].VT)
	if !ok {
		return
	}
	if h := *pending; h != eventq.NoHandle {
		if pt, live := l.q.TimeOf(h); live && ct <= pt {
			// Paper rule Ej <= Ej-1: delete Ej-1, do not insert Ej.
			// Geometrically unreachable after rule 1 (kept for engine
			// robustness).
			l.q.Remove(h)
			l.st.EventsFiltered++
			*pending = eventq.NoHandle
			return
		}
	}
	*pending = l.q.PushKeyed(ct, uint64(uint32(pin)), event{pin: pin, rising: tr.Rising, slew: tr.Slew})
}

// fire consumes one event popped from lane l at l.now: it updates the pin's
// logic value, re-evaluates the gate, and when the output target flips
// evaluates the configured delay model and clamps the result to a causal,
// per-net monotonic start time. ok reports a flip; the caller then emits
// the returned output transition on net out (Engine.emit or the partitioned
// worker's emit). h is the popped event's (stale) handle, used to reconcile
// the per-pin pending record. It is the one copy of the per-event body both
// kernels run.
//
//halotis:noalloc
func (e *Engine) fire(l *lane, h eventq.Handle, ev event) (out int32, start, slew float64, rising, ok bool) {
	ir := e.ir
	pin := &ir.Pins[ev.pin]
	if e.pending[ev.pin] == h {
		e.pending[ev.pin] = eventq.NoHandle
	}
	e.inVals[ev.pin] = ev.rising

	l.st.Evaluations++
	g := &ir.Gates[pin.Gate]
	gs := &e.gates[pin.Gate]
	a, b := g.Pins()
	rising = g.Kind.Eval(e.inVals[a:b])
	if rising == gs.target {
		return 0, 0, 0, false, false
	}

	edge := &ir.Edges[pin.Edge]
	ep := &edge.Fall
	if rising {
		ep = &edge.Rise
	}
	var res delay.Result
	switch e.opt.Model {
	case DDM:
		T := l.now - gs.lastOutStart // +Inf before the first transition
		res = delay.Degraded(*ep, ir.VDD, g.Load, ev.slew, T)
	default:
		res = delay.Conventional(*ep, g.Load, ev.slew)
	}
	if res.Filtered {
		l.st.FullyDegraded++
	} else if res.Degraded {
		l.st.DegradedTransitions++
	}

	// Clamp to a causal, per-net monotonic start time. Full degradation
	// (tp <= 0) collapses the pulse to a MinPulse sliver right after the
	// previous output transition; receivers then cancel its crossings.
	tp := math.Max(res.Tp, e.opt.MinPulse)
	start = l.now + tp
	if min := gs.lastOutStart + e.opt.MinPulse; start < min {
		start = min
	}

	gs.target = rising
	gs.lastOutStart = start
	return g.Out, start, res.Slew, rising, true
}

// SetProfiling toggles per-run kernel profiling on a live engine: when on,
// the next Run's Result.Profile carries per-worker counters (see Profile).
// Pooled engines are profiled per request this way — profiling is run
// state, not identity, so it does not fragment engine pools. When off (the
// default) no profile is materialized and the steady-state run path
// performs zero allocations, exactly as without the feature.
func (e *Engine) SetProfiling(on bool) { e.profiling = on }

// SetProgress attaches a live event counter: during a run the kernel adds
// exact event deltas into c every ctxCheckMask+1 pops (and a final
// remainder when the run ends, normally or not), so an external sampler
// can derive kernel events/sec while a long run is still in flight. Like
// profiling, progress is run state, not identity — pooled engines share
// the node-wide counter. A nil counter (the default) restores the
// unobserved path at the cost of one predicted branch per check batch.
// Both the sequential and partitioned kernels honor it; partitioned
// workers publish their deltas concurrently.
func (e *Engine) SetProgress(c *atomic.Uint64) { e.progress = c }

// publishProgress flushes the events processed since the last publish
// into the attached progress counter.
//
//halotis:noalloc
func (e *Engine) publishProgress() {
	if e.progress == nil {
		return
	}
	e.progress.Add(e.st.EventsProcessed - e.progressPub)
	e.progressPub = e.st.EventsProcessed
}
