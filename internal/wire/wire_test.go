package wire_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"halotis/api"
	"halotis/internal/wire"
)

// strictOracle is encoding/json's strict decode, the one the service's
// decodeJSON performs: unknown fields are errors, and so is anything but
// whitespace after the document.
func strictOracle(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// codec is one wire type's encoder and decoder, with the encoding/json
// calls they must agree with.
type codec struct {
	name   string
	typ    reflect.Type
	encode func(v any) ([]byte, error)
	decode func(data []byte) (any, error)
	oracle func(data []byte) (any, error)
}

func codecOf[T any](name string, strict bool, enc func([]byte, *T) ([]byte, error), dec func([]byte, *T) error) codec {
	return codec{
		name:   name,
		typ:    reflect.TypeFor[T](),
		encode: func(v any) ([]byte, error) { return enc(nil, v.(*T)) },
		decode: func(data []byte) (any, error) {
			v := new(T)
			return v, dec(data, v)
		},
		oracle: func(data []byte) (any, error) {
			v := new(T)
			if strict {
				return v, strictOracle(data, v)
			}
			return v, json.Unmarshal(data, v)
		},
	}
}

var codecs = []codec{
	codecOf("SimRequest", true, wire.AppendSimRequest, wire.DecodeSimRequest),
	codecOf("BatchRequest", true, wire.AppendBatchRequest, wire.DecodeBatchRequest),
	codecOf("Report", false, wire.AppendReport, wire.DecodeReport),
	codecOf("BatchResponse", false, wire.AppendBatchResponse, wire.DecodeBatchResponse),
}

// agree decodes data with c and with its oracle and fails unless both
// reject it or both accept it with deeply equal values.
func agree(t *testing.T, c codec, data []byte) {
	t.Helper()
	got, gotErr := c.decode(data)
	want, wantErr := c.oracle(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s %q:\nwire err = %v\njson err = %v", c.name, data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q:\nwire = %#v\njson = %#v", c.name, data, got, want)
	}
}

// encodesAlike encodes v with c and with json.Marshal and fails unless the
// bytes, or the errors, are the same.
func encodesAlike(t *testing.T, c codec, v any) {
	t.Helper()
	got, gotErr := c.encode(v)
	want, wantErr := json.Marshal(v)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: wire err = %v, json err = %v", c.name, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\nwire = %s\njson = %s", c.name, got, want)
	}
}

// wireStructs are the struct types the codec reads and writes. A struct
// type added to one of them must be added here, and to the codec.
var wireStructs = []reflect.Type{
	reflect.TypeFor[api.SimRequest](), reflect.TypeFor[api.Request](), reflect.TypeFor[api.Edge](),
	reflect.TypeFor[api.InputWave](), reflect.TypeFor[api.BatchRequest](), reflect.TypeFor[api.BatchOptions](),
	reflect.TypeFor[api.Report](), reflect.TypeFor[api.Stats](), reflect.TypeFor[api.Waveform](),
	reflect.TypeFor[api.Crossing](), reflect.TypeFor[api.KernelProfile](), reflect.TypeFor[api.WorkerProfile](),
	reflect.TypeFor[api.ActivitySummary](), reflect.TypeFor[api.PowerSummary](), reflect.TypeFor[api.BatchResponse](),
	reflect.TypeFor[api.ErrorResponse](),
}

// filler sets every field of a value non-zero, counting up so no two
// fields share a value, and records the struct types it walked.
type filler struct {
	n    int
	seen map[reflect.Type]bool
	t    *testing.T
}

func (f *filler) fill(v reflect.Value) {
	f.n++
	switch v.Kind() {
	case reflect.Struct:
		f.seen[v.Type()] = true
		for i := range v.NumField() {
			sf := v.Type().Field(i)
			if _, ok := sf.Tag.Lookup("json"); !ok && !sf.Anonymous {
				f.t.Errorf("%s.%s has no json tag", v.Type().Name(), sf.Name)
			}
			f.fill(v.Field(i))
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d<&>\u2028é", f.n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(f.n))
	case reflect.Uint64:
		v.SetUint(uint64(f.n) << 40)
	case reflect.Float64:
		v.SetFloat(float64(f.n) + 0.125)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range 2 {
			f.fill(v.Index(i))
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for range 2 {
			k := reflect.New(v.Type().Key()).Elem()
			f.fill(k)
			e := reflect.New(v.Type().Elem()).Elem()
			f.fill(e)
			v.SetMapIndex(k, e)
		}
	default:
		f.t.Fatalf("no filler for kind %s (%s)", v.Kind(), v.Type())
	}
}

// TestEveryWireField sets every JSON-tagged field of the codec's types
// non-zero and requires the codec to write json.Marshal's bytes and to
// read them back as encoding/json does. A field added to a wire struct
// without the codec learning it fails here: the encode drops it, and the
// decode rejects it as unknown (requests) or skips it (reports).
func TestEveryWireField(t *testing.T) {
	f := &filler{seen: map[reflect.Type]bool{}, t: t}
	for _, c := range codecs {
		v := reflect.New(c.typ)
		f.fill(v.Elem())
		encodesAlike(t, c, v.Interface())
		data, err := json.Marshal(v.Interface())
		if err != nil {
			t.Fatal(err)
		}
		agree(t, c, data)
		got, _ := c.decode(data)
		if !reflect.DeepEqual(got, v.Interface()) {
			t.Errorf("%s does not round-trip:\ngot  %#v\nwant %#v", c.name, got, v.Interface())
		}
	}
	for _, typ := range wireStructs {
		if !f.seen[typ] {
			t.Errorf("%s is listed but no codec type holds it", typ)
		}
		delete(f.seen, typ)
	}
	for typ := range f.seen {
		t.Errorf("%s is inside a codec type but not listed in wireStructs", typ)
	}
}

// quirks are documents on which a decoder that only looks like
// encoding/json would disagree with it. Each is decoded by every codec.
var quirks = []string{
	// Keys match case-insensitively under Unicode folding, after
	// unescaping; the exact spelling is preferred.
	`{"CIRCUIT":"x","T_END":5,"ſtimulus":{}}`,
	`{"circuit":"x","t\u005fend":5,"\u0073timulus":{}}`,
	`{"circuit":"x","t_end":5,"stimulus":{"a":{"EDGES":[{"T":1,"RISING":true,"SLEW":0.5}]}}}`,
	`{"circuit":"x","t_end":5,"stimulus":{},"K":1}`,
	`{"circuit":"x","t_end":5,"stimulus":{},"\u212aodel":"cdm"}`,
	// Repeated members: maps merge, slices decode over what is there.
	`{"circuit":"x","t_end":5,"stimulus":{"a":{}},"stimulus":{"b":{"init":true}}}`,
	`{"circuit":"x","t_end":5,"stimulus":{"a":{"init":true},"a":{"edges":[{"t":1}]}}}`,
	`{"circuit":"x","t_end":5,"stimulus":{"a":{"edges":[{"t":1,"rising":true,"slew":0.5},{"t":2}],"edges":[{"t":3}]}}}`,
	`{"circuit":"x","t_end":5,"stimulus":{"a":{"edges":[{"t":1,"slew":0.5},{"t":2,"slew":0.7}],"edges":[{"t":3}],"edges":[{"t":4},{"t":6}]}}}`,
	`{"circuit":"x","requests":[{"t_end":1,"stimulus":{"a":{}}},{"t_end":2}],"requests":[{"stimulus":{"b":{}}}]}`,
	`{"circuit":"x","requests":[{"t_end":1}],"requests":[],"requests":[{"stimulus":{}}]}`,
	`{"circuit":"x","requests":[{"t_end":1}],"options":{"allow_partial":true},"options":{}}`,
	`{"circuit":"x","t_end":5,"waveforms":["a","b"],"waveforms":["c"],"stimulus":{}}`,
	// null: a no-op on scalars and structs, clears maps, slices and pointers.
	`{"circuit":"x","t_end":5,"stimulus":null}`,
	`{"circuit":null,"netlist":"n","t_end":5,"model":null,"stimulus":{"a":null,"b":{"edges":null,"init":null}}}`,
	`{"circuit":"x","t_end":5,"stimulus":{"a":{"edges":[null,{"t":null}]}}}`,
	`{"circuit":"x","requests":[null,{"t_end":1}],"options":null}`,
	`null`,
	// Invalid UTF-8 and escapes.
	"{\"circuit\":\"\xff\xfe\",\"t_end\":5,\"stimulus\":{\"\xc3\":{}}}",
	`{"circuit":"\ud800","netlist":"\ud800\udc00\udc00\ud800\u0041","t_end":5,"stimulus":{}}`,
	`{"circuit":"\"\\\/\b\f\n\r\t\u00e9\u2028","t_end":5,"stimulus":{}}`,
	`{"circuit":"x\'","t_end":5,"stimulus":{}}`,
	"{\"circuit\":\"a\x01\",\"t_end\":5,\"stimulus\":{}}",
	"{\"circuit\":\"a\x7f\",\"t_end\":5,\"stimulus\":{}}",
	// Numbers must fit their field and JSON's grammar.
	`{"circuit":"x","t_end":1e999,"stimulus":{}}`,
	`{"circuit":"x","t_end":-0,"stimulus":{}}`,
	`{"circuit":"x","t_end":5,"max_events":-1,"stimulus":{}}`,
	`{"circuit":"x","t_end":5,"max_events":-0,"stimulus":{}}`,
	`{"circuit":"x","t_end":5,"max_events":18446744073709551616,"stimulus":{}}`,
	`{"circuit":"x","t_end":5,"partitions":1.0,"stimulus":{}}`,
	`{"circuit":"x","t_end":5,"partitions":1e1,"stimulus":{}}`,
	`{"circuit":"x","t_end":1e-400,"stimulus":{}}`,
	`{"circuit":"x","t_end":01,"stimulus":{}}`,
	`{"circuit":"x","t_end":1.,"stimulus":{}}`,
	`{"circuit":"x","t_end":.5,"stimulus":{}}`,
	`{"circuit":"x","t_end":+5,"stimulus":{}}`,
	`{"circuit":"x","t_end":1E+2,"stimulus":{}}`,
	`{"circuit":"x","t_end":"5","stimulus":{}}`,
	// Wrong kinds and malformed documents.
	`{"circuit":5,"t_end":5,"stimulus":{}}`,
	`{"circuit":"x","t_end":5,"stimulus":[]}`,
	`{"circuit":"x","t_end":5,"stimulus":{},"profile":"true"}`,
	`{"circuit":"x","t_end":5,"stimulus":{},}`,
	`{"circuit":"x" "t_end":5}`,
	`{"circuit":"x","t_end":5,"stimulus":{}`,
	`[]`,
	``,
	` `,
	`tru`,
	`{"circuit":"x","t_end":5,"stimulus":{}} `,
	// Trailing data.
	`{"circuit":"x","t_end":5,"stimulus":{}}}`,
	`{"circuit":"x","t_end":5,"stimulus":{}}]`,
	`{"circuit":"x","t_end":5,"stimulus":{}}{}`,
	`{"circuit":"x","t_end":5,"stimulus":{}} x`,
	"{\"circuit\":\"x\",\"t_end\":5,\"stimulus\":{}}\x00",
	// Report members: maps of structs, pointers, unknown members skipped.
	`{"circuit":"c","outputs":{"a":true,"b":null},"outputs":{"c":false},"waveforms":{"y":{"crossings":[{"t":1,"rising":true}]},"z":null}}`,
	`{"circuit":"c","profile":{"workers":[{"partition":1,"stall_waits":2}]},"profile":{"partitions":2},"activity":null,"power":{"avg_power_mw":1e-7}}`,
	`{"circuit":"c","stats":{"events_queued":1},"stats":{"evaluations":2},"future":{"a":[1,{"b":null}],"c":"d"},"elapsed_ns":-3}`,
	`{"circuit":"c","reports":[{"circuit":"a","outputs":{"x":true}}],"reports":[{"outputs":{"y":true}}],"errors":[null,{"error":"e","code":"invalid_request"}]}`,
	`{"circuit":"c","errors":[{"error":"e"}],"errors":[{"code":"x"}]}`,
	`{"circuit":"c","future":[1,2}`,
	`{"circuit":"c","future":{"a" 1}}`,
	`{"circuit":"c","future":{"a":1,}}`,
	`{"circuit":"c","future":[1,]}`,
	`{"circuit":"c","future":[[],{},"",0,true,false,null]}`,
	`{"circuit":"c","stats":{"events_queued":1.5}}`,
	`{"circuit":"c","elapsed_ns":9223372036854775808}`,
}

func TestQuirksMatchEncodingJSON(t *testing.T) {
	for _, q := range quirks {
		for _, c := range codecs {
			agree(t, c, []byte(q))
		}
	}
}

// TestNestingLimit: encoding/json rejects a document with more than
// 10,000 objects and arrays open at once, and so does the lenient
// decoder when it skips an unknown member; it does not recurse, so the
// limit, not the stack, bounds it.
func TestNestingLimit(t *testing.T) {
	for _, depth := range []int{9998, 9999, 10000, 200000} {
		doc := `{"circuit":"c","future":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		for _, c := range codecs[2:] {
			agree(t, c, []byte(doc))
		}
		mixed := `{"future":` + strings.Repeat(`{"a":[`, depth/2) + strings.Repeat(`]}`, depth/2) + `}`
		agree(t, codecs[2], []byte(mixed))
	}
}

// TestEncodeEdgeValues covers the float format switches, negative zero,
// HTML and line-separator escapes, control characters, invalid UTF-8 and
// the unsupported floats, which must fail with json.Marshal's message.
func TestEncodeEdgeValues(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e21, math.Nextafter(1e21, 0),
		1e20, 123456789, 0.1, 1.0 / 3, 5e-324, math.MaxFloat64, -1e-9, 1e-10, 2.5e-8,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "<a href=\"x\">&amp;</a>", "\u2028\u2029", "tab\tnl\ncr\rbs\bff\f\x00\x1f\x7f", "\xff\xfeok\xc3", "é日本\U0001F600", `back\slash "quote"`}
	for _, x := range floats {
		for _, s := range strs {
			encodesAlike(t, codecs[0], &api.SimRequest{Circuit: s, Request: api.Request{TEnd: x, MinPulse: x,
				Stimulus: api.Stimulus{s: {Edges: []api.Edge{{T: x, Slew: x}}}}, Waveforms: []string{s}}})
			encodesAlike(t, codecs[1], &api.BatchRequest{Netlist: s, Requests: []api.Request{{TEnd: x}, {TimeoutMs: x}}})
			encodesAlike(t, codecs[2], &api.Report{Circuit: s, TEnd: x, VCD: s, Outputs: map[string]bool{s: true, "b": false},
				Waveforms: map[string]api.Waveform{s: {Crossings: []api.Crossing{{T: x}}}, "e": {Crossings: []api.Crossing{}}},
				Power:     &api.PowerSummary{GlitchFraction: x}, Activity: &api.ActivitySummary{EnergyNorm: -x}})
			encodesAlike(t, codecs[3], &api.BatchResponse{Circuit: s, Reports: []api.Report{{TEnd: x}},
				Errors: []*api.ErrorResponse{nil, {Error: s}}})
		}
	}
	// Empty and nil collections: nil writes null where json.Marshal does,
	// and omitempty drops empty ones.
	encodesAlike(t, codecs[0], &api.SimRequest{})
	encodesAlike(t, codecs[0], &api.SimRequest{Request: api.Request{Stimulus: api.Stimulus{}, Waveforms: []string{}}})
	encodesAlike(t, codecs[1], &api.BatchRequest{})
	encodesAlike(t, codecs[1], &api.BatchRequest{Requests: []api.Request{}, Options: &api.BatchOptions{}})
	encodesAlike(t, codecs[2], &api.Report{})
	encodesAlike(t, codecs[2], &api.Report{Outputs: map[string]bool{}, Waveforms: map[string]api.Waveform{}, Profile: &api.KernelProfile{}})
	encodesAlike(t, codecs[3], &api.BatchResponse{})
	encodesAlike(t, codecs[3], &api.BatchResponse{Reports: []api.Report{}, Errors: []*api.ErrorResponse{}})
}

// TestAppendKeepsPrefix: the encoders append, and a failed encode leaves
// dst as it was.
func TestAppendKeepsPrefix(t *testing.T) {
	dst := []byte("prefix:")
	out, err := wire.AppendReport(dst, &api.Report{Circuit: "c"})
	if err != nil || !bytes.HasPrefix(out, dst) {
		t.Fatalf("AppendReport = %q, %v", out, err)
	}
	out, err = wire.AppendSimRequest(dst, &api.SimRequest{Request: api.Request{TEnd: math.NaN()}})
	if err == nil || !slices.Equal(out, dst) {
		t.Fatalf("AppendSimRequest(NaN) = %q, %v; want the prefix and an error", out, err)
	}
}

// TestEncodeMapOrder holds the key sort to json.Marshal's order on maps
// of 2 to 1000 keys, with keys built to trip a prefix sort: shared
// prefixes longer than eight bytes, keys that are prefixes of others, NUL
// and high bytes, and the empty key.
func TestEncodeMapOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	alphabet := []string{"", "\x00", "a", "b", "\xff", "é", "n1", "common-prefix-"}
	for _, n := range []int{2, 64, 309, 1000} {
		rep := &api.Report{Outputs: map[string]bool{}, Waveforms: map[string]api.Waveform{}}
		st := api.Stimulus{}
		for len(rep.Outputs) < n {
			var k string
			for range rng.IntN(5) {
				k += alphabet[rng.IntN(len(alphabet))]
			}
			rep.Outputs[k] = rng.IntN(2) == 0
			rep.Waveforms[k] = api.Waveform{Crossings: []api.Crossing{}}
			st[k] = api.InputWave{}
		}
		encodesAlike(t, codecs[2], rep)
		encodesAlike(t, codecs[0], &api.SimRequest{Request: api.Request{Stimulus: st}})
	}
}
