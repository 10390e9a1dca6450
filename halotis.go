// Package halotis is a reproduction of the HALOTIS high-accuracy logic
// timing simulator (Ruiz de Clavijo et al., DATE 2001): an event-driven
// gate-level simulator implementing the Inertial and Degradation Delay
// Model (IDDM), together with the substrates the paper's evaluation needs —
// a conventional-delay configuration (CDM), a classical inertial-delay
// baseline, an analog reference engine standing in for HSPICE, a 0.6 µm
// style cell library with characterization tooling, and the benchmark
// circuits (inverter chains, the Fig. 1 two-threshold circuit, the Fig. 5
// 4x4 array multiplier).
//
// Quick start:
//
//	lib := halotis.DefaultLibrary()
//	ckt, _ := halotis.Multiplier4x4(lib)
//	st, _ := halotis.MultiplierSequence(halotis.PaperSequence1(), 4, 4, 5.0, 0.2)
//	res, _ := halotis.Simulate(ckt, st, 28, halotis.WithModel(halotis.DDM))
//	fmt.Println(res.Stats.EventsProcessed, "events")
package halotis

import (
	"context"
	"io"

	"halotis/internal/analog"
	"halotis/internal/cellib"
	"halotis/internal/charlib"
	"halotis/internal/circ"
	"halotis/internal/circuits"
	"halotis/internal/compare"
	"halotis/internal/netfmt"
	"halotis/internal/netlist"
	"halotis/internal/sim"
	"halotis/internal/stats"
	"halotis/internal/stimuli"
)

// Core type aliases: the public API is expressed in terms of the internal
// engine types so results interoperate across subsystems.
type (
	// Library is a cell library (functions, delay and degradation
	// coefficients, thresholds) under one supply voltage.
	Library = cellib.Library
	// Cell is one library cell definition.
	Cell = cellib.Cell
	// Kind identifies a cell's logic function (INV, NAND2, ...).
	Kind = cellib.Kind
	// Circuit is a finalized combinational netlist.
	Circuit = netlist.Circuit
	// Builder assembles circuits incrementally.
	Builder = netlist.Builder
	// Stimulus maps primary input names to drive waveforms.
	Stimulus = sim.Stimulus
	// InputWave is one primary input's drive: initial level plus edges.
	InputWave = sim.InputWave
	// InputEdge is one externally driven transition.
	InputEdge = sim.InputEdge
	// Model selects the delay model (DDM or CDM).
	Model = sim.Model
	// Result is the outcome of a logic-timing run.
	Result = sim.Result
	// ClassicResult is the outcome of a classical inertial-delay run.
	ClassicResult = sim.ClassicResult
	// AnalogResult is the outcome of an analog reference run.
	AnalogResult = analog.Result
	// AnalogOptions configures the analog engine.
	AnalogOptions = analog.Options
	// CharConfig parameterizes cell characterization.
	CharConfig = charlib.Config
	// MultiplierPair is one AxB operand pair of a vector sequence.
	MultiplierPair = stimuli.MultiplierPair
	// ComparisonSummary quantifies logic-vs-analog agreement.
	ComparisonSummary = compare.Summary
	// ActivityComparison summarizes DDM-vs-CDM switching activity.
	ActivityComparison = stats.ActivityComparison
	// CompiledCircuit is the flat compiled IR every performance path runs
	// against (see internal/circ); Compile memoizes it per circuit.
	CompiledCircuit = circ.Compiled
	// CircuitFamily is one parameterized scalable benchmark family.
	CircuitFamily = circuits.Family
)

// Delay model selectors.
const (
	// DDM is the paper's inertial and degradation delay model.
	DDM = sim.DDM
	// CDM is the conventional delay model inside the same engine.
	CDM = sim.CDM
)

// Cell kinds, re-exported for builder calls.
const (
	INV   = cellib.INV
	BUF   = cellib.BUF
	NAND2 = cellib.NAND2
	NAND3 = cellib.NAND3
	NAND4 = cellib.NAND4
	NOR2  = cellib.NOR2
	NOR3  = cellib.NOR3
	NOR4  = cellib.NOR4
	AND2  = cellib.AND2
	AND3  = cellib.AND3
	OR2   = cellib.OR2
	OR3   = cellib.OR3
	XOR2  = cellib.XOR2
	XNOR2 = cellib.XNOR2
	AOI21 = cellib.AOI21
	OAI21 = cellib.OAI21
)

// DefaultLibrary returns the default 0.6 µm-style cell library (VDD = 5 V).
func DefaultLibrary() *Library { return cellib.Default06() }

// NewBuilder starts a circuit over a library.
func NewBuilder(name string, lib *Library) *Builder { return netlist.NewBuilder(name, lib) }

// Option configures Simulate.
type Option func(*sim.Options)

// WithModel selects the delay model (default DDM).
func WithModel(m Model) Option { return func(o *sim.Options) { o.Model = m } }

// WithMaxEvents overrides the oscillation guard.
func WithMaxEvents(n uint64) Option { return func(o *sim.Options) { o.MaxEvents = n } }

// WithMinPulse overrides the minimum emitted pulse separation, ns.
func WithMinPulse(p float64) Option { return func(o *sim.Options) { o.MinPulse = p } }

// WithWorkers bounds the parallelism of SimulateBatch (default: one worker
// per available CPU). Single runs ignore it.
func WithWorkers(n int) Option { return func(o *sim.Options) { o.Workers = n } }

// WithPartitions selects the partitioned parallel kernel for single runs:
// the circuit is split into n level-ordered partitions, each simulated by
// its own worker goroutine, with boundary transitions exchanged through
// mailboxes. Results are bit-identical to the sequential kernel for any
// count. 0 (the default) picks automatically by circuit size and
// GOMAXPROCS; 1 forces the sequential kernel; counts are clamped to the
// engine's maximum.
func WithPartitions(n int) Option { return func(o *sim.Options) { o.Partitions = n } }

// WithContext attaches a cancellation context to the run: Simulate,
// SimulateBatch and engines built with NewEngine abort at event-pop
// granularity once ctx is done, returning an error that wraps ctx.Err().
// Engine.RunContext takes a context explicitly and overrides this option.
func WithContext(ctx context.Context) Option { return func(o *sim.Options) { o.Ctx = ctx } }

// WithProfile enables per-run kernel profiling: Result.Profile reports,
// per partition worker, the events popped, horizon-stall waits and
// mailbox traffic of the run (sequential runs report one worker's event
// count). Off by default — the disabled path costs nothing and keeps the
// kernel's zero-allocation steady state; enabling it allocates one small
// Profile per run.
func WithProfile() Option { return func(o *sim.Options) { o.Profile = true } }

func buildOptions(opts []Option) sim.Options {
	var o sim.Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Simulate runs the HALOTIS engine on the circuit until tEnd ns.
//
// Compatibility guarantee: Simulate, NewEngine and SimulateBatch are the
// stable in-process convenience surface over the same kernel the Session
// API's Local backend uses (see backend.go); they are kept source- and
// behavior-compatible across releases. A Simulate call is equivalent to a
// Local session Run of the corresponding Request, except that it returns
// the full *Result (every net's analog waveform) where a Report carries
// the selected digests. New code that may ever need to run remotely
// should prefer the Session API.
func Simulate(ckt *Circuit, st Stimulus, tEnd float64, opts ...Option) (*Result, error) {
	return sim.NewEngine(ckt, buildOptions(opts)).Run(st, tEnd)
}

// Engine is the reusable simulation kernel: one circuit, any number of runs.
// Each Run resets the engine's state in place, so repeated runs over the
// same circuit allocate nothing in steady state — the setup cost of Simulate
// is paid once instead of per run. Engines are not safe for concurrent use;
// run one per goroutine (or use SimulateBatch, which does so for you).
//
// The Result returned by Engine.Run aliases the engine's reusable storage
// and is valid only until the next Run or Reset; call Result.Detach to keep
// it. Results from the one-shot Simulate never need detaching.
type Engine = sim.Engine

// NewEngine prepares a reusable engine for the circuit. The circuit's
// flattened simulation tables are memoized on the circuit itself, so engines
// over the same circuit share them.
func NewEngine(ckt *Circuit, opts ...Option) *Engine {
	return sim.NewEngine(ckt, buildOptions(opts))
}

// SimulateBatch runs every stimulus against the circuit until tEnd ns,
// fanning the work across parallel workers (one reusable engine per worker;
// WithWorkers bounds the count, default GOMAXPROCS). Results are detached,
// in stimulus order, and bit-identical to running Simulate on each stimulus
// — parallelism changes only the wall-clock time. This is the entry point
// for Monte Carlo and vector-sweep workloads: N stimuli cost N event loops
// but only one circuit flattening and one engine warm-up per worker.
func SimulateBatch(ckt *Circuit, stimuli []Stimulus, tEnd float64, opts ...Option) ([]*Result, error) {
	return sim.RunBatch(ckt, stimuli, tEnd, buildOptions(opts))
}

// SimulateClassic runs the conventional inertial-delay baseline (the
// simulator style the paper's Fig. 1c criticizes).
func SimulateClassic(ckt *Circuit, st Stimulus, tEnd float64) (*ClassicResult, error) {
	return sim.RunClassic(ckt, st, tEnd, sim.ClassicOptions{})
}

// SimulateAnalog runs the analog reference engine (the repository's HSPICE
// substitute) on a primitives-only circuit.
func SimulateAnalog(ckt *Circuit, st Stimulus, tEnd float64, opt AnalogOptions) (*AnalogResult, error) {
	return analog.Run(ckt, st, tEnd, opt)
}

// CompareWithAnalog matches the logic result's primary-output edges against
// the analog reference.
func CompareWithAnalog(lr *Result, ar *AnalogResult, tEnd float64) ComparisonSummary {
	return compare.CompareOutputs(lr, ar, tEnd)
}

// CompareActivity summarizes switching activity of a DDM and a CDM run of
// the same workload (the paper's glitch-power overestimation argument).
func CompareActivity(ddm, cdm *Result) ActivityComparison {
	return stats.CompareActivity(ddm, cdm)
}

// CharacterizeLibrary fits a new library against the analog reference, the
// way the authors fitted the IDDM against HSPICE. Only primitive inverting
// kinds are re-fitted; composites keep template parameters.
func CharacterizeLibrary(template *Library, cfg CharConfig, kinds ...Kind) (*Library, error) {
	lib, _, err := charlib.BuildLibrary(template, cfg, kinds...)
	return lib, err
}

// Circuit generators (paper benchmarks).

// InverterChain builds a chain of n inverters (nets in, w1.., out).
func InverterChain(lib *Library, n int) (*Circuit, error) { return circuits.InverterChain(lib, n) }

// Figure1 builds the paper's Fig. 1 two-threshold circuit.
func Figure1(lib *Library) (*Circuit, error) { return circuits.Figure1(lib) }

// Multiplier4x4 builds the paper's Fig. 5 4x4 array multiplier.
func Multiplier4x4(lib *Library) (*Circuit, error) { return circuits.Multiplier4x4(lib) }

// Multiplier builds the generalized n x m array multiplier.
func Multiplier(lib *Library, n, m int) (*Circuit, error) { return circuits.Multiplier(lib, n, m) }

// RippleCarryAdder builds a width-bit NAND-adder.
func RippleCarryAdder(lib *Library, width int) (*Circuit, error) {
	return circuits.RippleCarryAdder(lib, width)
}

// ParityTree builds a width-input XOR tree from NAND primitives.
func ParityTree(lib *Library, width int) (*Circuit, error) { return circuits.ParityTree(lib, width) }

// C17 builds the ISCAS-85 C17 benchmark.
func C17(lib *Library) (*Circuit, error) { return circuits.C17(lib) }

// AdderChain builds stages cascaded width-bit ripple-carry adders — the
// deep-carry-chain scalable family.
func AdderChain(lib *Library, width, stages int) (*Circuit, error) {
	return circuits.AdderChain(lib, width, stages)
}

// CarrySaveAdderTree builds a CSA (3:2 compressor) reduction tree summing
// the given number of width-bit operands — the shallow, wide scalable
// family.
func CarrySaveAdderTree(lib *Library, operands, width int) (*Circuit, error) {
	return circuits.CarrySaveAdderTree(lib, operands, width)
}

// ScalableFamilies returns the parameterized circuit families the
// size-scaling benchmarks sweep (adder chains, CSA trees, multipliers,
// random DAGs), each buildable at an approximate target gate count.
func ScalableFamilies() []CircuitFamily { return circuits.ScalableFamilies() }

// Compile returns the circuit's compiled IR (dense slabs, CSR fanout,
// precomputed loads), memoized on the circuit; engines, batch workers and
// statistics passes over the same circuit share it.
func Compile(ckt *Circuit) *CompiledCircuit { return circ.Compile(ckt) }

// Netlist I/O.

// ParseBench reads an ISCAS85 .bench netlist (AND/NAND/OR/NOR/NOT/BUFF/
// XOR/XNOR, arbitrary fan-in) onto the library's cells.
func ParseBench(r io.Reader, lib *Library) (*Circuit, error) { return netfmt.ParseBench(r, lib) }

// WriteBench serializes a circuit in ISCAS85 .bench format.
func WriteBench(w io.Writer, ckt *Circuit) error { return netfmt.WriteBench(w, ckt) }

// C17BenchText returns the embedded ISCAS85 c17 benchmark in .bench format.
func C17BenchText() string { return netfmt.C17Bench() }

// Stimulus builders.

// Sequence converts period-spaced vectors into a stimulus.
func Sequence(vectors []stimuli.Vector, period, slew float64) (Stimulus, error) {
	return stimuli.Sequence(vectors, period, slew)
}

// MultiplierSequence applies AxB operand pairs to an n x m multiplier.
func MultiplierSequence(pairs []MultiplierPair, n, m int, period, slew float64) (Stimulus, error) {
	return stimuli.MultiplierSequence(pairs, n, m, period, slew)
}

// PaperSequence1 is the Fig. 6 / Table 1 sequence 0x0, 7x7, 5xA, Ex6, FxF.
func PaperSequence1() []MultiplierPair { return stimuli.PaperSequence1() }

// PaperSequence2 is the Fig. 7 / Table 1 sequence 0x0, FxF, 0x0, FxF, 0x0.
func PaperSequence2() []MultiplierPair { return stimuli.PaperSequence2() }

// PaperPeriod is the 5 ns vector period of the paper's evaluation.
const PaperPeriod = stimuli.PaperPeriod

// PulseTrain drives one input with count pulses of the given width.
func PulseTrain(input string, t0, width, gap float64, count int, slew float64) (Stimulus, error) {
	return stimuli.PulseTrain(input, t0, width, gap, count, slew)
}

// RandomStimulus builds a deterministic random vector stimulus over the
// circuit's primary inputs: count vectors at the given period.
func RandomStimulus(ckt *Circuit, count int, period, slew float64, seed int64) (Stimulus, error) {
	return stimuli.RandomStimulusFor(ckt, count, period, slew, seed)
}
