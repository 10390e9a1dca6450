package wire

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"halotis/api"
)

// encoder appends JSON to b. The first unencodable value sets err; the
// rest of the encode carries on and its bytes are dropped.
type encoder struct {
	b   []byte
	err error
}

// unsupportedError is json.Marshal's error for a float JSON cannot carry,
// message for message.
type unsupportedError struct{ str string }

func (e *unsupportedError) Error() string { return "json: unsupported value: " + e.str }

// result returns the encoding, or dst unextended with the error.
func (e *encoder) result(dst []byte) ([]byte, error) {
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// key writes an object member's name: a comma unless it is the object's
// first, then the quoted name and a colon. Field names need no escaping.
func (e *encoder) key(name string) {
	if e.b[len(e.b)-1] != '{' {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
}

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, "true"...)
	} else {
		e.b = append(e.b, "false"...)
	}
}

func (e *encoder) int(v int64)   { e.b = strconv.AppendInt(e.b, v, 10) }
func (e *encoder) uint(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }
func (e *encoder) null()         { e.b = append(e.b, "null"...) }
func (e *encoder) str(s string)  { e.b = appendString(e.b, s) }
func (e *encoder) open(c byte)   { e.b = append(e.b, c) }
func (e *encoder) close(c byte)  { e.b = append(e.b, c) }

// comma separates element i of an array from the one before it.
func (e *encoder) comma(i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
}

// float writes v as encoding/json does: ECMAScript number formatting,
// exponent form below 1e-6 and from 1e21 on, with e-09 cut to e-9.
func (e *encoder) float(v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		if e.err == nil {
			e.err = &unsupportedError{strconv.FormatFloat(v, 'g', -1, 64)}
		}
		e.null()
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, v, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// htmlSafe marks the ASCII bytes a string carries unescaped: printable
// characters except the quote, the backslash and HTML's <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// short escapes for \ " \b \f \n \r \t, \u00XX for the other control
// bytes and for <, > and &, \u2028 and \u2029 escaped, and each byte of
// invalid UTF-8 written as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// sortedKey is a map key with its first eight bytes, zero-padded, read
// as a big-endian integer: integer order on the prefixes never
// contradicts byte order on the keys.
type sortedKey struct {
	prefix uint64
	name   string
}

func compareKeys(a, b sortedKey) int {
	if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
		return c
	}
	return strings.Compare(a.name, b.name)
}

// sortedKeys returns m's keys in the byte order encoding/json writes map
// members in.
func sortedKeys[M ~map[string]V, V any](m M) []sortedKey {
	keys := make([]sortedKey, 0, len(m))
	for k := range m {
		var p [8]byte
		copy(p[:], k)
		keys = append(keys, sortedKey{binary.BigEndian.Uint64(p[:]), k})
	}
	slices.SortFunc(keys, compareKeys)
	return keys
}

// --- the request types ---

func (e *encoder) simRequest(r *api.SimRequest) {
	e.open('{')
	e.target(r.Circuit, r.Netlist, r.Format)
	e.requestFields(&r.Request)
	e.close('}')
}

func (e *encoder) batchRequest(r *api.BatchRequest) {
	e.open('{')
	e.target(r.Circuit, r.Netlist, r.Format)
	e.key("requests")
	if r.Requests == nil {
		e.null()
	} else {
		e.open('[')
		for i := range r.Requests {
			e.comma(i)
			e.open('{')
			e.requestFields(&r.Requests[i])
			e.close('}')
		}
		e.close(']')
	}
	if r.Options != nil {
		e.key("options")
		e.open('{')
		if r.Options.AllowPartial {
			e.key("allow_partial")
			e.bool(true)
		}
		e.close('}')
	}
	e.close('}')
}

// target writes the circuit, netlist and format members a SimRequest and
// a BatchRequest share.
func (e *encoder) target(circuit, netlist, format string) {
	if circuit != "" {
		e.key("circuit")
		e.str(circuit)
	}
	if netlist != "" {
		e.key("netlist")
		e.str(netlist)
	}
	if format != "" {
		e.key("format")
		e.str(format)
	}
}

// requestFields writes a Request's members into the object being written.
func (e *encoder) requestFields(r *api.Request) {
	if r.Model != "" {
		e.key("model")
		e.str(r.Model)
	}
	e.key("t_end")
	e.float(r.TEnd)
	if r.MaxEvents != 0 {
		e.key("max_events")
		e.uint(r.MaxEvents)
	}
	if r.MinPulse != 0 {
		e.key("min_pulse")
		e.float(r.MinPulse)
	}
	if r.TimeoutMs != 0 {
		e.key("timeout_ms")
		e.float(r.TimeoutMs)
	}
	if r.Partitions != 0 {
		e.key("partitions")
		e.int(int64(r.Partitions))
	}
	if r.Profile {
		e.key("profile")
		e.bool(true)
	}
	e.key("stimulus")
	e.stimulus(r.Stimulus)
	if len(r.Waveforms) > 0 {
		e.key("waveforms")
		e.open('[')
		for i, n := range r.Waveforms {
			e.comma(i)
			e.str(n)
		}
		e.close(']')
	}
	if r.Activity {
		e.key("activity")
		e.bool(true)
	}
	if r.Power {
		e.key("power")
		e.bool(true)
	}
	if r.VCD {
		e.key("vcd")
		e.bool(true)
	}
}

func (e *encoder) stimulus(s api.Stimulus) {
	if s == nil {
		e.null()
		return
	}
	e.open('{')
	for i, k := range sortedKeys(s) {
		e.comma(i)
		e.str(k.name)
		e.b = append(e.b, ':')
		w := s[k.name]
		e.open('{')
		if w.Init {
			e.key("init")
			e.bool(true)
		}
		if len(w.Edges) > 0 {
			e.key("edges")
			e.open('[')
			for j, ed := range w.Edges {
				e.comma(j)
				e.open('{')
				e.key("t")
				e.float(ed.T)
				e.key("rising")
				e.bool(ed.Rising)
				if ed.Slew != 0 {
					e.key("slew")
					e.float(ed.Slew)
				}
				e.close('}')
			}
			e.close(']')
		}
		e.close('}')
	}
	e.close('}')
}

// --- the report types ---

func (e *encoder) report(r *api.Report) {
	e.open('{')
	e.key("circuit")
	e.str(r.Circuit)
	e.key("model")
	e.str(r.Model)
	e.key("t_end")
	e.float(r.TEnd)
	e.key("elapsed_ns")
	e.int(r.ElapsedNs)
	if r.Cached {
		e.key("cached")
		e.bool(true)
	}
	if r.Replica != "" {
		e.key("replica")
		e.str(r.Replica)
	}
	if r.Degraded {
		e.key("degraded")
		e.bool(true)
	}
	e.key("stats")
	e.stats(&r.Stats)
	if r.TraceID != "" {
		e.key("trace_id")
		e.str(r.TraceID)
	}
	if r.Profile != nil {
		e.key("profile")
		e.kernelProfile(r.Profile)
	}
	e.key("outputs")
	if r.Outputs == nil {
		e.null()
	} else {
		e.open('{')
		for i, k := range sortedKeys(r.Outputs) {
			e.comma(i)
			e.str(k.name)
			e.b = append(e.b, ':')
			e.bool(r.Outputs[k.name])
		}
		e.close('}')
	}
	if len(r.Waveforms) > 0 {
		e.key("waveforms")
		e.open('{')
		for i, k := range sortedKeys(r.Waveforms) {
			e.comma(i)
			e.str(k.name)
			e.b = append(e.b, ':')
			e.waveform(r.Waveforms[k.name])
		}
		e.close('}')
	}
	if a := r.Activity; a != nil {
		e.key("activity")
		e.open('{')
		e.key("transitions")
		e.int(int64(a.Transitions))
		e.key("energy_norm")
		e.float(a.EnergyNorm)
		e.close('}')
	}
	if p := r.Power; p != nil {
		e.key("power")
		e.open('{')
		e.key("total_energy_fj")
		e.float(p.TotalEnergyFJ)
		e.key("glitch_energy_fj")
		e.float(p.GlitchEnergyFJ)
		e.key("avg_power_mw")
		e.float(p.AvgPowerMW)
		e.key("glitch_fraction")
		e.float(p.GlitchFraction)
		e.close('}')
	}
	if r.VCD != "" {
		e.key("vcd")
		e.str(r.VCD)
	}
	e.close('}')
}

func (e *encoder) stats(s *api.Stats) {
	e.open('{')
	e.key("events_queued")
	e.uint(s.EventsQueued)
	e.key("events_processed")
	e.uint(s.EventsProcessed)
	e.key("events_filtered")
	e.uint(s.EventsFiltered)
	e.key("evaluations")
	e.uint(s.Evaluations)
	e.key("transitions")
	e.uint(s.Transitions)
	e.key("degraded_transitions")
	e.uint(s.DegradedTransitions)
	e.key("fully_degraded")
	e.uint(s.FullyDegraded)
	e.close('}')
}

func (e *encoder) kernelProfile(p *api.KernelProfile) {
	e.open('{')
	e.key("partitions")
	e.int(int64(p.Partitions))
	e.key("workers")
	if p.Workers == nil {
		e.null()
	} else {
		e.open('[')
		for i, w := range p.Workers {
			e.comma(i)
			e.open('{')
			e.key("partition")
			e.int(int64(w.Partition))
			e.key("events_processed")
			e.uint(w.EventsProcessed)
			if w.StallWaits != 0 {
				e.key("stall_waits")
				e.uint(w.StallWaits)
			}
			if w.MailboxSends != 0 {
				e.key("mailbox_sends")
				e.uint(w.MailboxSends)
			}
			if w.MailboxHighWater != 0 {
				e.key("mailbox_high_water")
				e.int(int64(w.MailboxHighWater))
			}
			e.close('}')
		}
		e.close(']')
	}
	e.close('}')
}

func (e *encoder) waveform(w api.Waveform) {
	e.open('{')
	if w.Init {
		e.key("init")
		e.bool(true)
	}
	e.key("crossings")
	if w.Crossings == nil {
		e.null()
	} else {
		e.open('[')
		for i, c := range w.Crossings {
			e.comma(i)
			e.open('{')
			e.key("t")
			e.float(c.T)
			e.key("rising")
			e.bool(c.Rising)
			e.close('}')
		}
		e.close(']')
	}
	e.close('}')
}

func (e *encoder) batchResponse(r *api.BatchResponse) {
	e.open('{')
	e.key("circuit")
	e.str(r.Circuit)
	e.key("reports")
	if r.Reports == nil {
		e.null()
	} else {
		e.open('[')
		for i := range r.Reports {
			e.comma(i)
			e.report(&r.Reports[i])
		}
		e.close(']')
	}
	if len(r.Errors) > 0 {
		e.key("errors")
		e.open('[')
		for i, er := range r.Errors {
			e.comma(i)
			if er == nil {
				e.null()
				continue
			}
			e.errorResponse(er)
		}
		e.close(']')
	}
	e.close('}')
}

func (e *encoder) errorResponse(r *api.ErrorResponse) {
	e.open('{')
	e.key("error")
	e.str(r.Error)
	if r.Code != "" {
		e.key("code")
		e.str(r.Code)
	}
	if r.RetryAfterMs != 0 {
		e.key("retry_after_ms")
		e.int(r.RetryAfterMs)
	}
	if r.Replica != "" {
		e.key("replica")
		e.str(r.Replica)
	}
	if r.TraceID != "" {
		e.key("trace_id")
		e.str(r.TraceID)
	}
	e.close('}')
}
