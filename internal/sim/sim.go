// Package sim implements the HALOTIS logic-timing simulation engine of the
// DATE 2001 paper: an event-driven kernel that distinguishes *transitions*
// (linear voltage ramps on signals) from *events* (the crossing of one gate
// input's threshold voltage by a transition), evaluates gate delays with
// either the conventional delay model (CDM) or the inertial and degradation
// delay model (IDDM/DDM), and performs the Fig. 4 scheduling algorithm with
// event deletion for inertial pulse filtering.
//
// The front door is the reusable Engine (NewEngine, any number of Run
// calls with zero steady-state allocations; see engine.go and the parallel
// batch runner in batch.go); a one-shot run is NewEngine(ckt, opt).Run.
// Every run goes through one event loop (partition.go): Partitions = 1 is
// one lane on the caller's goroutine, more partitions run one goroutine
// each, and the results are bit-identical for every partition count.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"halotis/internal/circ"
	"halotis/internal/netlist"
	"halotis/internal/wave"
)

// Model selects the delay model of the engine.
type Model int

const (
	// DDM is the full inertial and degradation delay model (the paper's
	// HALOTIS-DDM configuration).
	DDM Model = iota
	// CDM is the same engine with degradation disabled: conventional
	// delays, per-input thresholds still active (HALOTIS-CDM).
	CDM
)

// String names the model like the paper does.
func (m Model) String() string {
	switch m {
	case DDM:
		return "HALOTIS-DDM"
	case CDM:
		return "HALOTIS-CDM"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Options configures a simulation run.
type Options struct {
	// Model selects DDM (default) or CDM.
	Model Model
	// MinPulse is the minimum separation between consecutive output
	// transitions of one gate, used to clamp fully degraded pulses to a
	// causally consistent zero-width sliver. Default 1e-6 ns.
	MinPulse float64
	// MaxEvents aborts the run when exceeded, as a guard against
	// oscillating circuits. Default 50e6.
	MaxEvents uint64
	// Workers bounds the parallelism of RunBatch: <= 0 means one worker
	// per available CPU. Single runs ignore it.
	Workers int
	// Partitions sets how many partitions a single run is split into: that
	// many level-ordered partitions (see circ.Partition), each driven by its
	// own worker and event queue, with boundary transitions exchanged
	// through mailboxes under a conservative horizon protocol. 1 is the
	// sequential case, one lane on the caller's goroutine with no goroutine
	// or mailbox; more run one worker goroutine per partition. Results are
	// bit-identical for any partition count. 0 (the default) picks
	// automatically by circuit size and GOMAXPROCS — small circuits run one
	// lane; values are clamped to [1, MaxPartitions].
	Partitions int
	// Ctx, when non-nil, cancels runs: Engine.Run and RunBatch abort at
	// event-pop granularity once the context is done, returning an error
	// wrapping ctx.Err(). Engine.RunContext's explicit context overrides
	// it.
	Ctx context.Context
	// Profile enables per-run kernel profiling: Result.Profile carries
	// per-worker counters (events popped, horizon-stall waits, mailbox
	// sends and depth high-water). Off by default; the disabled path
	// preserves the engine's zero-allocation steady state. Togglable per
	// run on a live engine via Engine.SetProfiling.
	Profile bool
}

// Kernel defaults. setDefaults applies DefaultMinPulse and
// DefaultMaxEvents, which are exported so layers above (the service's
// engine-pool keys) can normalize explicit spellings of the defaults onto
// one value instead of duplicating the literals.
const (
	// DefaultMinPulse is the default minimum output pulse separation, ns.
	DefaultMinPulse = 1e-6
	// DefaultMaxEvents is the default oscillation guard.
	DefaultMaxEvents = 50_000_000
)

// ErrNonFiniteHorizon refuses a run whose horizon tEnd is NaN or infinite.
var ErrNonFiniteHorizon = errors.New("sim: horizon tEnd is not finite")

func (o *Options) setDefaults() {
	if o.MinPulse <= 0 {
		o.MinPulse = DefaultMinPulse
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = DefaultMaxEvents
	}
}

// Stats aggregates kernel counters for one run. EventsQueued/Processed/
// Filtered correspond to the quantities of Table 1 in the paper.
type Stats struct {
	// EventsQueued counts events inserted into the event queue.
	EventsQueued uint64
	// EventsProcessed counts events popped and evaluated.
	EventsProcessed uint64
	// EventsFiltered counts pending events deleted by the inertial rule
	// (the paper's "filtered events").
	EventsFiltered uint64
	// Evaluations counts gate function evaluations.
	Evaluations uint64
	// Transitions counts output transitions emitted onto nets.
	Transitions uint64
	// DegradedTransitions counts transitions whose delay was visibly
	// shortened by degradation.
	DegradedTransitions uint64
	// FullyDegraded counts evaluations where T <= T0 collapsed the output
	// pulse entirely.
	FullyDegraded uint64
}

// Result carries the outcome of a run.
//
// A Result returned by Engine.Run aliases the engine's reusable waveform
// storage: it is valid until the engine's next Run or Reset. Detach returns
// an independent deep copy. The result of an engine used once, such as
// halotis.Simulate's, is never invalidated.
type Result struct {
	// Model that produced the result.
	Model Model
	// Stats are the kernel counters.
	Stats Stats
	// Elapsed is the wall-clock kernel time (the paper's Table 2 metric).
	Elapsed time.Duration
	// EndTime is the simulated horizon in ns.
	EndTime float64
	// Profile holds per-worker kernel counters when profiling was enabled
	// for the run (Options.Profile / Engine.SetProfiling); nil otherwise.
	Profile *Profile

	ir  *circ.Compiled
	wfs []wave.Waveform // by net ID
}

// Detach returns a deep copy of the result whose waveforms no longer alias
// engine storage, safe to hold across further runs of the producing engine.
func (r *Result) Detach() *Result {
	c := *r
	c.wfs = make([]wave.Waveform, len(r.wfs))
	for i := range r.wfs {
		c.wfs[i] = *r.wfs[i].Clone()
	}
	return &c
}

// Waveform returns the simulated waveform of the named net, or nil. The
// lookup goes through the compiled IR's name index, not the netlist graph.
func (r *Result) Waveform(net string) *wave.Waveform {
	id := r.ir.NetID(net)
	if id < 0 {
		return nil
	}
	return &r.wfs[id]
}

// WaveformAt returns the waveform of the net with the given dense ID (see
// circ.Compiled.NetID); the allocation-free variant of Waveform for callers
// that already hold IR net IDs.
func (r *Result) WaveformAt(id int32) *wave.Waveform { return &r.wfs[id] }

// Circuit returns the simulated circuit.
func (r *Result) Circuit() *netlist.Circuit { return r.ir.Circuit }

// IR returns the compiled representation the run executed against.
func (r *Result) IR() *circ.Compiled { return r.ir }

// OutputLogic samples every primary output at time t with threshold vt and
// returns name -> level.
func (r *Result) OutputLogic(t, vt float64) map[string]bool {
	out := make(map[string]bool, len(r.ir.Outputs))
	for _, o := range r.ir.Outputs {
		out[r.ir.NetName[o]] = r.wfs[o].LogicAt(t, vt)
	}
	return out
}

// NetActivity reports per-net transition counts and normalized switching
// energy; used by the Table 1 harness.
type NetActivity struct {
	Net         string
	Transitions int
	FullSwing   int
	EnergyNorm  float64
}

// Activity returns activity for every net in ID order.
func (r *Result) Activity() []NetActivity {
	out := make([]NetActivity, len(r.wfs))
	for i := range r.wfs {
		wf := &r.wfs[i]
		out[i] = NetActivity{
			Net:         r.ir.NetName[i],
			Transitions: wf.Len(),
			FullSwing:   wf.FullSwingCount(),
			EnergyNorm:  wf.SwitchingEnergyNorm(),
		}
	}
	return out
}

// TotalActivity sums transition counts and switching energy across nets,
// reading the waveforms directly rather than materializing Activity.
func (r *Result) TotalActivity() (transitions int, energy float64) {
	for i := range r.wfs {
		transitions += r.wfs[i].Len()
		energy += r.wfs[i].SwitchingEnergyNorm()
	}
	return transitions, energy
}
