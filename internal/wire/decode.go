package wire

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"halotis/api"
)

// maxDepth is encoding/json's nesting limit: a document may hold at most
// this many objects and arrays open at once.
const maxDepth = 10000

// decoder reads one JSON document from data in a single pass. Each value
// reader decodes into the value its target already holds, as
// encoding/json does, which is what makes repeated members and null agree
// with it.
type decoder struct {
	data   []byte
	off    int
	depth  int    // objects and arrays open around the value being read
	strict bool   // an unknown object member is an error, not skipped
	buf    []byte // unescaped string scratch
	skips  []byte // open containers of a value being skipped
	keys   []byte // the keys of the maps being read, end to end
	ends   []int  // where each key in keys ends
}

// decoders recycles decoders, and with them their scratch buffers.
var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decode runs value over data and requires that only whitespace follows.
func decode(data []byte, strict bool, value func(*decoder) error) error {
	d := decoders.Get().(*decoder)
	d.data, d.off, d.depth, d.strict = data, 0, 0, strict
	err := value(d)
	if d.peek(); err == nil && d.off < len(d.data) {
		err = d.syntax("after top-level value")
	}
	d.data = nil
	decoders.Put(d)
	return err
}

// --- errors ---

// syntax reports malformed JSON at the current offset.
func (d *decoder) syntax(where string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("wire: unexpected end of JSON input (%s)", where)
	}
	return fmt.Errorf("wire: invalid character %q %s at offset %d", d.data[d.off], where, d.off)
}

// mismatch reports a value of the wrong kind for its field.
func (d *decoder) mismatch(want string) error {
	if d.off >= len(d.data) {
		return d.syntax("looking for beginning of value")
	}
	return fmt.Errorf("wire: cannot decode %s into %s at offset %d", kindAt(d.data[d.off]), want, d.off)
}

func kindAt(c byte) string {
	switch {
	case c == '{':
		return "object"
	case c == '[':
		return "array"
	case c == '"':
		return "string"
	case c == 't' || c == 'f':
		return "bool"
	case c == 'n':
		return "null"
	case c == '-' || '0' <= c && c <= '9':
		return "number"
	}
	return fmt.Sprintf("invalid character %q", c)
}

// --- lexical ---

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes lit (true, false or null).
func (d *decoder) literal(lit string) error {
	end := d.off + len(lit)
	if end > len(d.data) || string(d.data[d.off:end]) != lit {
		for i := 0; d.off < len(d.data) && i < len(lit) && d.data[d.off] == lit[i]; i++ {
			d.off++
		}
		return d.syntax("in literal " + lit)
	}
	d.off = end
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits consumes a run of at least one digit.
func (d *decoder) digits(where string) error {
	if d.off >= len(d.data) || !isDigit(d.data[d.off]) {
		return d.syntax(where)
	}
	for d.off < len(d.data) && isDigit(d.data[d.off]) {
		d.off++
	}
	return nil
}

// number consumes a number literal in JSON's grammar and returns its text.
func (d *decoder) number() ([]byte, error) {
	start := d.off
	if d.data[d.off] == '-' {
		d.off++
	}
	if d.off < len(d.data) && d.data[d.off] == '0' {
		d.off++
	} else if err := d.digits("in numeric literal"); err != nil {
		return nil, err
	}
	if d.off < len(d.data) && d.data[d.off] == '.' {
		d.off++
		if err := d.digits("after decimal point in numeric literal"); err != nil {
			return nil, err
		}
	}
	if d.off < len(d.data) && (d.data[d.off] == 'e' || d.data[d.off] == 'E') {
		d.off++
		if d.off < len(d.data) && (d.data[d.off] == '+' || d.data[d.off] == '-') {
			d.off++
		}
		if err := d.digits("in exponent of numeric literal"); err != nil {
			return nil, err
		}
	}
	return d.data[start:d.off], nil
}

// text consumes a string literal and returns its contents unescaped. The
// bytes alias the input or the scratch buffer and stay valid until the
// next string is read.
func (d *decoder) text() ([]byte, error) {
	start := d.off + 1 // past the opening quote
	for i := start; i < len(d.data); {
		c := d.data[i]
		switch {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], nil
		case c == '\\' || c < ' ':
			return d.unquote(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.off = len(d.data)
	return nil, d.syntax("in string literal")
}

// unquote finishes a string literal whose bytes from i on need rewriting:
// escapes resolve, and each byte of invalid UTF-8 becomes U+FFFD, exactly
// as encoding/json's unquote does.
func (d *decoder) unquote(start, i int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:i]...)
	defer func() { d.buf = b[:0] }()
	for i < len(d.data) {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return b, nil
		case c < ' ':
			d.off = i
			return nil, d.syntax("in string literal")
		case c == '\\':
			if i+1 >= len(d.data) {
				d.off = len(d.data)
				return nil, d.syntax("in string escape code")
			}
			switch e := d.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[i:])
				if r < 0 {
					d.off = i + 2
					return nil, d.syntax("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(d.data[i:])); dec != unicode.ReplacementChar {
						i += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off = i + 1
				return nil, d.syntax("in string escape code")
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.off = len(d.data)
	return nil, d.syntax("in string literal")
}

// hex4 reads a \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// --- containers ---

// open enters an object or array, at its opening bracket.
func (d *decoder) open() error {
	if d.depth++; d.depth > maxDepth {
		return d.syntax("exceeding the maximum nesting depth")
	}
	d.off++
	return nil
}

// object reads the members of an object, the decoder at its opening
// brace. member gets each key, unescaped, with the decoder at the value,
// which it must read; the key is valid until member reads a string.
func (d *decoder) object(member func(key []byte) error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.off++
		d.depth--
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// array reads the elements of an array, the decoder at its opening
// bracket; elem reads element i.
func (d *decoder) array(elem func(i int) error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.off++
		d.depth--
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// skip reads one value of any kind and discards it, checking its syntax
// and depth as encoding/json does. It keeps the kinds of the containers it
// is inside in a byte stack instead of recursing, so no document, however
// deep, grows the goroutine's stack.
func (d *decoder) skip() error {
	stack := d.skips[:0]
	defer func() { d.skips = stack[:0] }()
	for {
		// At the start of a value.
		switch c := d.peek(); {
		case c == '{' || c == '[':
			if len(stack)+d.depth >= maxDepth {
				return d.syntax("exceeding the maximum nesting depth")
			}
			stack = append(stack, c)
			d.off++
			if end := d.peek(); end == c+2 { // '}' is '{'+2, ']' is '['+2
				d.off++
				stack = stack[:len(stack)-1]
				break
			}
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, err := d.text(); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			if _, err := d.number(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.syntax("looking for beginning of value")
		}
		// After a value: close finished containers, then go on to the
		// next member or element, or return once the skipped value ends.
		for {
			if len(stack) == 0 {
				return nil
			}
			open := stack[len(stack)-1]
			c := d.peek()
			if c == open+2 {
				d.off++
				stack = stack[:len(stack)-1]
				continue
			}
			if c != ',' {
				if open == '{' {
					return d.syntax("after object key:value pair")
				}
				return d.syntax("after array element")
			}
			d.off++
			if open == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// key reads an object key and the colon after it, and returns the key as
// text does.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntax("looking for beginning of object key string")
	}
	k, err := d.text()
	if err != nil {
		return nil, err
	}
	if d.peek() != ':' {
		return nil, d.syntax("after object key")
	}
	d.off++
	return k, nil
}

// --- typed values ---

// num reads a number for a numeric field: its literal, or nil for null.
func (d *decoder) num() ([]byte, error) {
	switch c := d.peek(); {
	case c == 'n':
		return nil, d.literal("null")
	case c == '-' || isDigit(c):
		return d.number()
	}
	return nil, d.mismatch("number")
}

// badNumber reports a number that does not fit its field.
func badNumber(lit []byte, typ string) error {
	return fmt.Errorf("wire: cannot decode number %s into %s", lit, typ)
}

func (d *decoder) float(v *float64) error {
	lit, err := d.num()
	if lit == nil || err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return badNumber(lit, "float64")
	}
	*v = f
	return nil
}

func (d *decoder) int(v *int) error {
	lit, err := d.num()
	if lit == nil || err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return badNumber(lit, "int")
	}
	*v = int(n)
	return nil
}

func (d *decoder) int64(v *int64) error {
	lit, err := d.num()
	if lit == nil || err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return badNumber(lit, "int64")
	}
	*v = n
	return nil
}

func (d *decoder) uint64(v *uint64) error {
	lit, err := d.num()
	if lit == nil || err != nil {
		return err
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		return badNumber(lit, "uint64")
	}
	*v = n
	return nil
}

func (d *decoder) bool(v *bool) error {
	switch c := d.peek(); c {
	case 'n':
		return d.literal("null")
	case 't', 'f':
		lit := "false"
		if c == 't' {
			lit = "true"
		}
		if err := d.literal(lit); err != nil {
			return err
		}
		*v = c == 't'
		return nil
	}
	return d.mismatch("bool")
}

func (d *decoder) str(v *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		s, err := d.text()
		if err == nil {
			*v = string(s)
		}
		return err
	}
	return d.mismatch("string")
}

// slice reads an array or null into *s the way encoding/json does: null
// clears it, elements decode over the ones already in place (up to its
// capacity), the slice is cut to the array's length, and an empty array
// leaves a new empty slice.
func slice[T any](d *decoder, s *[]T, elem func(*decoder, *T) error) error {
	switch d.peek() {
	case 'n':
		*s = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("array")
	}
	v, n := *s, 0
	err := d.array(func(i int) error {
		if i == cap(v) {
			var zero T
			v = append(v, zero)
		} else if i >= len(v) {
			v = v[:i+1]
		}
		n = i + 1
		return elem(d, &v[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		v = []T{}
	}
	*s = v[:n]
	return nil
}

// mapOf reads an object or null into *m the way encoding/json does: null
// clears it, an object adds to it (making it first if nil), and each
// member's value decodes into a zero value that then replaces the entry.
//
// The entries go into the map once the object is read, in order, so a
// repeated key still ends with its last value. Until then the keys,
// unescaped, gather end to end in the decoder's scratch, so that all of
// the map's keys share one string instead of an allocation each, and a
// new map is made at its final size.
func mapOf[M ~map[string]V, V any](d *decoder, m *M, elem func(*decoder, *V) error) error {
	switch d.peek() {
	case 'n':
		*m = nil
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("object")
	}
	base, ends := len(d.keys), len(d.ends)
	defer func() { d.keys, d.ends = d.keys[:base], d.ends[:ends] }()
	vals := make([]V, 0, 8)
	err := d.object(func(key []byte) error {
		d.keys = append(d.keys, key...)
		d.ends = append(d.ends, len(d.keys)-base)
		vals = append(vals, *new(V))
		return elem(d, &vals[len(vals)-1])
	})
	if err != nil {
		return err
	}
	if *m == nil {
		*m = make(M, len(vals))
	}
	keys, from := string(d.keys[base:]), 0
	for i, to := range d.ends[ends:] {
		(*m)[keys[from:to]] = vals[i]
		from = to
	}
	return nil
}

// ptr reads into *p, allocating it first unless the value is null, which
// clears it.
func ptr[T any](d *decoder, p **T, elem func(*decoder, *T) error) error {
	if d.peek() == 'n' {
		*p = nil
		return d.literal("null")
	}
	if *p == nil {
		*p = new(T)
	}
	return elem(d, *p)
}

// members reads an object or null into a struct whose JSON field names
// are names; field reads the member name selects, and is only ever called
// with one of names, so the field readers below treat their last field as
// the one left. null leaves the struct alone.
func (d *decoder) members(names []string, field func(name string) error) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("object")
	}
	return d.object(func(key []byte) error {
		if name := lookup(key, names); name != "" {
			return field(name)
		}
		if d.strict {
			return fmt.Errorf("wire: unknown field %q", key)
		}
		return d.skip()
	})
}

// lookup returns the field name key selects, as encoding/json matches
// object keys to fields: exactly, else under Unicode case folding. It
// returns "" for none.
func lookup(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if strings.EqualFold(string(key), n) {
			return n
		}
	}
	return ""
}

// --- the request types ---

var (
	requestNames = []string{"model", "t_end", "max_events", "min_pulse", "timeout_ms", "partitions", "profile", "stimulus", "waveforms", "activity", "power", "vcd"}
	simNames     = append([]string{"circuit", "netlist", "format"}, requestNames...)
	batchNames   = []string{"circuit", "netlist", "format", "requests", "options"}
	waveNames    = []string{"init", "edges"}
	edgeNames    = []string{"t", "rising", "slew"}
	optionNames  = []string{"allow_partial"}
)

func (d *decoder) simRequest(r *api.SimRequest) error {
	return d.members(simNames, func(name string) error {
		switch name {
		case "circuit":
			return d.str(&r.Circuit)
		case "netlist":
			return d.str(&r.Netlist)
		case "format":
			return d.str(&r.Format)
		}
		return d.requestField(&r.Request, name)
	})
}

func (d *decoder) batchRequest(r *api.BatchRequest) error {
	return d.members(batchNames, func(name string) error {
		switch name {
		case "circuit":
			return d.str(&r.Circuit)
		case "netlist":
			return d.str(&r.Netlist)
		case "format":
			return d.str(&r.Format)
		case "requests":
			return slice(d, &r.Requests, (*decoder).request)
		}
		return ptr(d, &r.Options, (*decoder).batchOptions)
	})
}

// request is the one Request decoder: a batch's slots read through it,
// and a SimRequest's promoted fields through requestField.
func (d *decoder) request(r *api.Request) error {
	return d.members(requestNames, func(name string) error { return d.requestField(r, name) })
}

func (d *decoder) requestField(r *api.Request, name string) error {
	switch name {
	case "model":
		return d.str(&r.Model)
	case "t_end":
		return d.float(&r.TEnd)
	case "max_events":
		return d.uint64(&r.MaxEvents)
	case "min_pulse":
		return d.float(&r.MinPulse)
	case "timeout_ms":
		return d.float(&r.TimeoutMs)
	case "partitions":
		return d.int(&r.Partitions)
	case "profile":
		return d.bool(&r.Profile)
	case "stimulus":
		return mapOf(d, &r.Stimulus, (*decoder).inputWave)
	case "waveforms":
		return slice(d, &r.Waveforms, (*decoder).str)
	case "activity":
		return d.bool(&r.Activity)
	case "power":
		return d.bool(&r.Power)
	}
	return d.bool(&r.VCD)
}

func (d *decoder) inputWave(w *api.InputWave) error {
	return d.members(waveNames, func(name string) error {
		if name == "init" {
			return d.bool(&w.Init)
		}
		return slice(d, &w.Edges, (*decoder).edge)
	})
}

func (d *decoder) edge(e *api.Edge) error {
	return d.members(edgeNames, func(name string) error {
		switch name {
		case "t":
			return d.float(&e.T)
		case "rising":
			return d.bool(&e.Rising)
		}
		return d.float(&e.Slew)
	})
}

func (d *decoder) batchOptions(o *api.BatchOptions) error {
	return d.members(optionNames, func(string) error { return d.bool(&o.AllowPartial) })
}

// --- the report types ---

var (
	reportNames    = []string{"circuit", "model", "t_end", "elapsed_ns", "cached", "replica", "degraded", "stats", "trace_id", "profile", "outputs", "waveforms", "activity", "power", "vcd"}
	statsNames     = []string{"events_queued", "events_processed", "events_filtered", "evaluations", "transitions", "degraded_transitions", "fully_degraded"}
	profileNames   = []string{"partitions", "workers"}
	workerNames    = []string{"partition", "events_processed", "stall_waits", "mailbox_sends", "mailbox_high_water"}
	waveformNames  = []string{"init", "crossings"}
	crossingNames  = []string{"t", "rising"}
	activityNames  = []string{"transitions", "energy_norm"}
	powerNames     = []string{"total_energy_fj", "glitch_energy_fj", "avg_power_mw", "glitch_fraction"}
	batchRespNames = []string{"circuit", "reports", "errors"}
	errorNames     = []string{"error", "code", "retry_after_ms", "replica", "trace_id"}
)

func (d *decoder) report(r *api.Report) error {
	return d.members(reportNames, func(name string) error {
		switch name {
		case "circuit":
			return d.str(&r.Circuit)
		case "model":
			return d.str(&r.Model)
		case "t_end":
			return d.float(&r.TEnd)
		case "elapsed_ns":
			return d.int64(&r.ElapsedNs)
		case "cached":
			return d.bool(&r.Cached)
		case "replica":
			return d.str(&r.Replica)
		case "degraded":
			return d.bool(&r.Degraded)
		case "stats":
			return d.stats(&r.Stats)
		case "trace_id":
			return d.str(&r.TraceID)
		case "profile":
			return ptr(d, &r.Profile, (*decoder).kernelProfile)
		case "outputs":
			return mapOf(d, &r.Outputs, (*decoder).bool)
		case "waveforms":
			return mapOf(d, &r.Waveforms, (*decoder).waveform)
		case "activity":
			return ptr(d, &r.Activity, (*decoder).activity)
		case "power":
			return ptr(d, &r.Power, (*decoder).power)
		}
		return d.str(&r.VCD)
	})
}

func (d *decoder) stats(s *api.Stats) error {
	return d.members(statsNames, func(name string) error {
		switch name {
		case "events_queued":
			return d.uint64(&s.EventsQueued)
		case "events_processed":
			return d.uint64(&s.EventsProcessed)
		case "events_filtered":
			return d.uint64(&s.EventsFiltered)
		case "evaluations":
			return d.uint64(&s.Evaluations)
		case "transitions":
			return d.uint64(&s.Transitions)
		case "degraded_transitions":
			return d.uint64(&s.DegradedTransitions)
		}
		return d.uint64(&s.FullyDegraded)
	})
}

func (d *decoder) kernelProfile(p *api.KernelProfile) error {
	return d.members(profileNames, func(name string) error {
		if name == "partitions" {
			return d.int(&p.Partitions)
		}
		return slice(d, &p.Workers, (*decoder).workerProfile)
	})
}

func (d *decoder) workerProfile(w *api.WorkerProfile) error {
	return d.members(workerNames, func(name string) error {
		switch name {
		case "partition":
			return d.int(&w.Partition)
		case "events_processed":
			return d.uint64(&w.EventsProcessed)
		case "stall_waits":
			return d.uint64(&w.StallWaits)
		case "mailbox_sends":
			return d.uint64(&w.MailboxSends)
		}
		return d.int(&w.MailboxHighWater)
	})
}

func (d *decoder) waveform(w *api.Waveform) error {
	return d.members(waveformNames, func(name string) error {
		if name == "init" {
			return d.bool(&w.Init)
		}
		return slice(d, &w.Crossings, (*decoder).crossing)
	})
}

func (d *decoder) crossing(c *api.Crossing) error {
	return d.members(crossingNames, func(name string) error {
		if name == "t" {
			return d.float(&c.T)
		}
		return d.bool(&c.Rising)
	})
}

func (d *decoder) activity(a *api.ActivitySummary) error {
	return d.members(activityNames, func(name string) error {
		if name == "transitions" {
			return d.int(&a.Transitions)
		}
		return d.float(&a.EnergyNorm)
	})
}

func (d *decoder) power(p *api.PowerSummary) error {
	return d.members(powerNames, func(name string) error {
		switch name {
		case "total_energy_fj":
			return d.float(&p.TotalEnergyFJ)
		case "glitch_energy_fj":
			return d.float(&p.GlitchEnergyFJ)
		case "avg_power_mw":
			return d.float(&p.AvgPowerMW)
		}
		return d.float(&p.GlitchFraction)
	})
}

func (d *decoder) batchResponse(r *api.BatchResponse) error {
	return d.members(batchRespNames, func(name string) error {
		switch name {
		case "circuit":
			return d.str(&r.Circuit)
		case "reports":
			return slice(d, &r.Reports, (*decoder).report)
		}
		return slice(d, &r.Errors, func(d *decoder, e **api.ErrorResponse) error {
			return ptr(d, e, (*decoder).errorResponse)
		})
	})
}

func (d *decoder) errorResponse(e *api.ErrorResponse) error {
	return d.members(errorNames, func(name string) error {
		switch name {
		case "error":
			return d.str(&e.Error)
		case "code":
			return d.str(&e.Code)
		case "retry_after_ms":
			return d.int64(&e.RetryAfterMs)
		case "replica":
			return d.str(&e.Replica)
		}
		return d.str(&e.TraceID)
	})
}
