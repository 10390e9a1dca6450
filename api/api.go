// Package api defines the backend-agnostic simulation request/report
// surface of HALOTIS: one set of typed, JSON-serializable structs shared by
// every caller-facing layer — the in-process Local backend and the
// package-level helpers in the root halotis package, the halotisd HTTP
// service (internal/service), and its typed Go client (halotis/client).
// Because all three consume these exact types, a Request that runs locally
// runs remotely unchanged, and the reports are bit-identical by
// construction.
//
// All times are in nanoseconds and voltages in volts, matching the kernel.
package api

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"halotis/internal/sim"
)

// Edge is one externally driven input transition.
type Edge struct {
	T      float64 `json:"t"`
	Rising bool    `json:"rising"`
	Slew   float64 `json:"slew,omitempty"`
}

// InputWave drives one primary input: initial level plus edges.
type InputWave struct {
	Init  bool   `json:"init,omitempty"`
	Edges []Edge `json:"edges,omitempty"`
}

// Stimulus maps primary input names to drives; missing inputs idle at 0.
type Stimulus map[string]InputWave

// Request is one simulation ask: the stimulus, the horizon, the delay
// model, the kernel limits, and the output selectors. It is both the
// argument of Session.Run and the wire payload of POST /v1/simulate, so
// backends cannot drift apart on semantics.
type Request struct {
	// Model is "ddm" (default) or "cdm".
	Model string `json:"model,omitempty"`
	// TEnd is the simulation horizon, ns. Required, > 0.
	TEnd float64 `json:"t_end"`
	// MaxEvents overrides the oscillation guard (0 = engine default). The
	// remote backend's operator cap, when configured, clamps it.
	MaxEvents uint64 `json:"max_events,omitempty"`
	// MinPulse overrides the minimum emitted pulse separation, ns.
	MinPulse float64 `json:"min_pulse,omitempty"`
	// TimeoutMs aborts the run after this many milliseconds of wall time,
	// counted from the start of the run, after any wait for admission.
	// 0 means no deadline from the request — the remote backend's
	// MaxTimeout, when configured, still applies as both cap and default.
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
	// Partitions selects the partitioned parallel kernel: 0 (default) lets
	// the engine choose by circuit size, 1 forces the sequential kernel,
	// higher counts split the circuit across that many worker goroutines.
	// Results are bit-identical for any value, so it tunes latency only.
	Partitions int `json:"partitions,omitempty"`
	// Profile requests the opt-in kernel execution profile: the report
	// then carries per-worker counters (events popped, horizon-stall
	// waits, mailbox sends/depth high-water) in Report.Profile. Off by
	// default; the disabled path preserves the kernel's zero-allocation
	// steady state.
	Profile bool `json:"profile,omitempty"`
	// Stimulus is the input drive.
	Stimulus Stimulus `json:"stimulus"`
	// Waveforms lists net names whose logic waveform (initial level plus
	// threshold crossings) to return.
	Waveforms []string `json:"waveforms,omitempty"`
	// Activity requests total transition count and switching energy.
	Activity bool `json:"activity,omitempty"`
	// Power requests the dynamic-power summary.
	Power bool `json:"power,omitempty"`
	// VCD requests a Value Change Dump of the selected waveforms (or the
	// primary outputs when Waveforms is empty).
	VCD bool `json:"vcd,omitempty"`
}

// Stats mirrors sim.Stats on the wire.
type Stats struct {
	EventsQueued        uint64 `json:"events_queued"`
	EventsProcessed     uint64 `json:"events_processed"`
	EventsFiltered      uint64 `json:"events_filtered"`
	Evaluations         uint64 `json:"evaluations"`
	Transitions         uint64 `json:"transitions"`
	DegradedTransitions uint64 `json:"degraded_transitions"`
	FullyDegraded       uint64 `json:"fully_degraded"`
}

// Crossing is one logic-threshold crossing of a returned waveform.
type Crossing struct {
	T      float64 `json:"t"`
	Rising bool    `json:"rising"`
}

// Waveform is one returned net waveform: the initial logic level and the
// threshold crossings, enough to reconstruct the full logic trace.
type Waveform struct {
	Init      bool       `json:"init,omitempty"`
	Crossings []Crossing `json:"crossings"`
}

// ActivitySummary is the switching-activity digest of one run.
type ActivitySummary struct {
	Transitions int     `json:"transitions"`
	EnergyNorm  float64 `json:"energy_norm"`
}

// PowerSummary is the dynamic-power digest of one run.
type PowerSummary struct {
	TotalEnergyFJ  float64 `json:"total_energy_fj"`
	GlitchEnergyFJ float64 `json:"glitch_energy_fj"`
	AvgPowerMW     float64 `json:"avg_power_mw"`
	GlitchFraction float64 `json:"glitch_fraction"`
}

// Report is the outcome of one Request, identical across backends: every
// field except Circuit (the content-hash ID the backend ran against),
// ElapsedNs (wall time, machine-dependent), Cached (whether a result
// cache served it) and Replica (which node ran it) is a deterministic
// function of (circuit, Request).
type Report struct {
	Circuit   string  `json:"circuit"`
	Model     string  `json:"model"`
	TEnd      float64 `json:"t_end"`
	ElapsedNs int64   `json:"elapsed_ns"`
	// Cached reports that a result cache answered without a kernel run.
	Cached bool `json:"cached,omitempty"`
	// Replica identifies the node that produced the report, when the
	// serving daemon was configured with an identity (halotisd -id).
	Replica string `json:"replica,omitempty"`
	// Degraded marks a report served from a router's result cache while
	// every replica holding the circuit was unreachable — a correct but
	// possibly stale answer, flagged so callers can tell graceful
	// degradation from a live run.
	Degraded bool  `json:"degraded,omitempty"`
	Stats    Stats `json:"stats"`
	// TraceID echoes the request's trace identity (the Halotis-Trace
	// header, or a server-assigned ID) so a caller can fetch the request's
	// span tree from GET /v1/traces/{id} on the nodes that served it.
	TraceID string `json:"trace_id,omitempty"`
	// Profile carries the kernel execution profile when the request asked
	// for one (Request.Profile); nil otherwise.
	Profile *KernelProfile `json:"profile,omitempty"`
	// Outputs samples every primary output at TEnd (threshold VDD/2).
	Outputs   map[string]bool     `json:"outputs"`
	Waveforms map[string]Waveform `json:"waveforms,omitempty"`
	Activity  *ActivitySummary    `json:"activity,omitempty"`
	Power     *PowerSummary       `json:"power,omitempty"`
	VCD       string              `json:"vcd,omitempty"`
}

// CircuitInfo describes one circuit a backend holds open.
type CircuitInfo struct {
	// ID is the content hash the circuit is addressed by (hex SHA-256 of
	// the canonical circuit structure plus library identity).
	ID      string   `json:"id"`
	Name    string   `json:"name"`
	Gates   int      `json:"gates"`
	Nets    int      `json:"nets"`
	Depth   int      `json:"depth"`
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`
	// Replica identifies the node that answered, when the serving daemon
	// was configured with an identity (halotisd -id). Content-hash IDs are
	// machine-independent, so the same circuit carries the same ID
	// whichever replica describes it.
	Replica string `json:"replica,omitempty"`
}

// ReplicaInfo describes one node of a cluster topology: its identity, its
// rendezvous address, and the health state the router's prober last
// observed. Served by the cluster router's GET /v1/topology and by
// cluster.Backend.Topology.
type ReplicaInfo struct {
	// ID is the replica's rendezvous identity (its base URL unless the
	// operator named it); placement hashes this, so renaming a replica
	// reshuffles its share of circuits.
	ID string `json:"id"`
	// Addr is the replica's base URL.
	Addr string `json:"addr"`
	// Healthy is the prober's last verdict (probe success and no passive
	// failure marking since).
	Healthy bool `json:"healthy"`
	// State is the replica's circuit-breaker state as the router sees it:
	// "closed" (healthy), "open" (failing; requests skip it until its
	// cooldown elapses) or "half-open" (a trial request is probing
	// recovery). Healthy is equivalent to State == "closed".
	State string `json:"state,omitempty"`
	// LastProbeUnixMs is when the prober last completed a probe of this
	// replica (0 before the first probe).
	LastProbeUnixMs int64 `json:"last_probe_unix_ms,omitempty"`
	// Circuits, QueueDepth and Workers mirror the replica's own /healthz
	// as of the last successful probe.
	Circuits   int `json:"circuits"`
	QueueDepth int `json:"queue_depth"`
	Workers    int `json:"workers"`
	// Failures counts transport-level failures observed against this
	// replica (probe and request paths both).
	Failures uint64 `json:"failures"`
}

// TopologyResponse is the body of the cluster router's GET /v1/topology:
// the member replicas and the placement parameters requests are routed by.
type TopologyResponse struct {
	Replicas []ReplicaInfo `json:"replicas"`
	// Replication is the configured replication factor: each circuit is
	// placed on the top-Replication replicas of its rendezvous ranking.
	Replication int `json:"replication"`
}

// UploadRequest registers a circuit with the service.
type UploadRequest struct {
	// Name optionally sets the circuit's display name when its content is
	// first cached. Circuits are content-addressed, so uploading content
	// that is already cached keeps the existing entry — including its
	// original display name — and this field is ignored (the response
	// reports the name actually in effect).
	Name string `json:"name,omitempty"`
	// Format is "auto" (default; sniffed from the text), "net" (native)
	// or "bench" (ISCAS85).
	Format string `json:"format,omitempty"`
	// Netlist is the netlist text itself.
	Netlist string `json:"netlist"`
}

// UploadResponse acknowledges an upload.
type UploadResponse struct {
	CircuitInfo
	// Cached reports that the content was already compiled and cached;
	// the upload performed no new compilation work that mattered.
	Cached bool `json:"cached"`
}

// SimRequest is the wire form of one run: a target circuit (exactly one of
// Circuit — a cached circuit's content-hash ID — or Netlist, inline text
// registered as by upload) plus the embedded Request.
type SimRequest struct {
	Circuit string `json:"circuit,omitempty"`
	Netlist string `json:"netlist,omitempty"`
	Format  string `json:"format,omitempty"`
	Request
}

// BatchRequest runs many Requests against one circuit. Each entry carries
// its own model, limits and output selectors; the service fans the entries
// out across its worker pool.
type BatchRequest struct {
	Circuit  string    `json:"circuit,omitempty"`
	Netlist  string    `json:"netlist,omitempty"`
	Format   string    `json:"format,omitempty"`
	Requests []Request `json:"requests"`
	// Options tunes batch failure semantics; nil means the default
	// first-error-cancels-all behavior.
	Options *BatchOptions `json:"options,omitempty"`
}

// BatchOptions tunes how a batch handles per-request failures.
type BatchOptions struct {
	// AllowPartial switches the batch to partial-results mode: instead of
	// the first failure canceling the remaining requests and failing the
	// whole batch, every request runs to its own outcome and the response
	// carries per-request errors alongside the successful reports. The
	// batch itself then fails only when it cannot start at all (admission
	// refusal, unknown circuit).
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// BatchResponse is the outcome of a batch run, in request order.
type BatchResponse struct {
	Circuit string   `json:"circuit"`
	Reports []Report `json:"reports"`
	// Errors, present only in partial-results mode (BatchOptions.
	// AllowPartial), aligns with Reports: Errors[i] describes request i's
	// failure (Reports[i] is then a zero Report), nil slots succeeded.
	// Reconstruct a taxonomy-matchable error with ErrorResponse.Err.
	Errors []*ErrorResponse `json:"errors,omitempty"`
}

// ErrorResponse is the body of every non-2xx service response. Code is the
// machine-readable classification the client maps back onto the error
// taxonomy of this package (see errors.go); Error is the human-readable
// message.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// RetryAfterMs hints when to retry an overloaded backend.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// Replica identifies the node the error originated on, when the
	// serving daemon (or the cluster router proxying it) carries an
	// identity — so a cluster-wide error names the node to look at.
	Replica string `json:"replica,omitempty"`
	// TraceID echoes the failed request's trace identity, so errors are
	// as traceable as successes.
	TraceID string `json:"trace_id,omitempty"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Circuits      int     `json:"circuits"`
	QueueDepth    int     `json:"queue_depth"`
	Workers       int     `json:"workers"`
	// Replica is the daemon's configured identity (halotisd -id), if any.
	Replica string `json:"replica,omitempty"`
}

// finite rejects NaN and infinities, consistent with the text parsers'
// parseFinite: JSON cannot encode them literally, but requests are also
// built programmatically and corrupt every downstream computation silently.
//
//halotis:noalloc
func finite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s: non-finite value", field)
	}
	return nil
}

// Validate checks an upload request.
func (r *UploadRequest) Validate() error {
	if r.Netlist == "" {
		return invalidf("netlist: required")
	}
	if !ValidFormat(r.Format) {
		return invalidf("format: unknown %q (want auto, net or bench)", r.Format)
	}
	return nil
}

// Validate checks the run options and stimulus. Failures wrap
// ErrInvalidRequest.
//
//halotis:noalloc
func (r *Request) Validate() error {
	if err := finite("t_end", r.TEnd); err != nil {
		return invalid(err)
	}
	if r.TEnd <= 0 {
		return invalidf("t_end: must be > 0, got %g", r.TEnd)
	}
	if _, err := ParseModel(r.Model); err != nil {
		return invalid(err)
	}
	if err := finite("min_pulse", r.MinPulse); err != nil {
		return invalid(err)
	}
	if r.MinPulse < 0 {
		return invalidf("min_pulse: must be >= 0, got %g", r.MinPulse)
	}
	if err := finite("timeout_ms", r.TimeoutMs); err != nil {
		return invalid(err)
	}
	if r.TimeoutMs < 0 {
		return invalidf("timeout_ms: must be >= 0, got %g", r.TimeoutMs)
	}
	if r.Partitions < 0 {
		return invalidf("partitions: must be >= 0, got %d", r.Partitions)
	}
	if r.Partitions > sim.MaxPartitions {
		return invalidf("partitions: must be <= %d, got %d", sim.MaxPartitions, r.Partitions)
	}
	return r.Stimulus.Validate()
}

// Validate checks every edge of every drive. Failures wrap
// ErrInvalidRequest.
//
//halotis:noalloc
func (s Stimulus) Validate() error {
	// Of several bad inputs, the one with the smallest name is reported,
	// so map iteration order cannot reach the message.
	var badName string
	var badErr error
	for name, w := range s {
		if err := validateDrive(name, w); err != nil && (badErr == nil || name < badName) {
			badName, badErr = name, err
		}
	}
	return badErr
}

// validateDrive checks one input's drive and reports its first bad edge. It
// formats a message only on failure: a valid stimulus costs no allocation.
//
//halotis:noalloc
func validateDrive(name string, w InputWave) error {
	if name == "" {
		return invalidf("stimulus: empty input name")
	}
	for i, e := range w.Edges {
		if err := finite("t", e.T); err != nil {
			return invalidf("stimulus %q edge %d %v", name, i, err)
		}
		if e.T < 0 {
			return invalidf("stimulus %q edge %d: negative time %g", name, i, e.T)
		}
		if err := finite("slew", e.Slew); err != nil {
			return invalidf("stimulus %q edge %d %v", name, i, err)
		}
		if e.Slew < 0 {
			return invalidf("stimulus %q edge %d: negative slew %g", name, i, e.Slew)
		}
	}
	return nil
}

func validateTarget(circuit, netlist, format string) error {
	if (circuit == "") == (netlist == "") {
		return invalidf("exactly one of circuit (cached ID) or netlist (inline text) must be set")
	}
	if !ValidFormat(format) {
		return invalidf("format: unknown %q (want auto, net or bench)", format)
	}
	return nil
}

// Validate checks a single-run wire request.
func (r *SimRequest) Validate() error {
	if err := validateTarget(r.Circuit, r.Netlist, r.Format); err != nil {
		return err
	}
	return r.Request.Validate()
}

// Validate checks a batch wire request.
func (r *BatchRequest) Validate() error {
	if err := validateTarget(r.Circuit, r.Netlist, r.Format); err != nil {
		return err
	}
	if len(r.Requests) == 0 {
		return invalidf("requests: at least one request required")
	}
	for i := range r.Requests {
		if err := r.Requests[i].Validate(); err != nil {
			return fmt.Errorf("requests[%d]: %w", i, err)
		}
	}
	return nil
}

// DefaultWireSlew is the slew applied to wire stimulus edges that omit one,
// matching the text stimulus format's default (0.3 ns), so the wire and
// text front ends agree. The kernel has no default of its own: it rejects
// an edge whose slew is not positive.
const DefaultWireSlew = 0.3

// ToSim converts the wire stimulus to the engine's form, sorting edges into
// time order (forgiving, like the text parser) and defaulting omitted slews
// to DefaultWireSlew.
//
//halotis:noalloc
func (s Stimulus) ToSim() sim.Stimulus {
	//halotis:alloc the converted stimulus is the result
	st := make(sim.Stimulus, len(s))
	for name, w := range s {
		iw := sim.InputWave{Init: w.Init}
		if len(w.Edges) > 0 {
			//halotis:alloc each input's edges, at their exact length
			iw.Edges = make([]sim.InputEdge, len(w.Edges))
			for i, e := range w.Edges {
				slew := e.Slew
				if slew <= 0 {
					slew = DefaultWireSlew
				}
				iw.Edges[i] = sim.InputEdge{Time: e.T, Rising: e.Rising, Slew: slew}
			}
			if !slices.IsSortedFunc(iw.Edges, byTime) {
				slices.SortStableFunc(iw.Edges, byTime) // equal times keep their wire order
			}
		}
		st[name] = iw
	}
	return st
}

// byTime orders engine edges by time.
//
//halotis:noalloc
func byTime(a, b sim.InputEdge) int { return cmp.Compare(a.Time, b.Time) }

// FromSim converts an engine stimulus to the wire form, preserving every
// edge exactly. Because the engine form always carries explicit slews,
// ToSim(FromSim(st)) reproduces st.
func FromSim(st sim.Stimulus) Stimulus {
	out := make(Stimulus, len(st))
	for name, w := range st {
		iw := InputWave{Init: w.Init}
		for _, e := range w.Edges {
			iw.Edges = append(iw.Edges, Edge{T: e.Time, Rising: e.Rising, Slew: e.Slew})
		}
		out[name] = iw
	}
	return out
}

// Options maps the request's kernel knobs onto engine options. The zero
// values defer to the engine defaults (see sim.Options).
func (r *Request) Options() sim.Options {
	m, _ := ParseModel(r.Model) // validated upstream
	return sim.Options{Model: m, MinPulse: r.MinPulse, MaxEvents: r.MaxEvents, Partitions: r.Partitions, Profile: r.Profile}
}

// ParseModel resolves the wire spelling of a delay model.
func ParseModel(s string) (sim.Model, error) {
	switch s {
	case "", "ddm":
		return sim.DDM, nil
	case "cdm":
		return sim.CDM, nil
	}
	return 0, fmt.Errorf("model: unknown %q (want ddm or cdm)", s)
}

// ModelName is the wire spelling of a delay model.
func ModelName(m sim.Model) string {
	if m == sim.CDM {
		return "cdm"
	}
	return "ddm"
}

// ValidFormat reports whether s names a known netlist format (or the empty
// string / "auto" for sniffing).
func ValidFormat(s string) bool {
	switch strings.ToLower(s) {
	case "", "auto", "net", "native", "bench", "iscas85":
		return true
	}
	return false
}
