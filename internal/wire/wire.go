// Package wire is the simulate codec: the JSON form of the request and
// report types that cross replica, router and client on every simulate
// call (api.SimRequest, api.BatchRequest, api.Report, api.BatchResponse and
// the types inside them), read and written in one pass over a byte slice
// without reflection.
//
// The codec speaks encoding/json's dialect exactly; encoding/json is its
// oracle in tests and fuzz targets:
//
//   - The Append functions write the bytes json.Marshal writes: fields in
//     declaration order, omitempty honored, map keys sorted, floats in
//     ECMAScript form, strings with HTML-safe escapes and invalid UTF-8 as
//     \ufffd. A NaN or infinite float fails the encode with
//     json.Marshal's message.
//   - The Decode functions accept what encoding/json accepts and build the
//     same value: object keys match field names exactly or under Unicode
//     case folding (T_END, ſtimulus), escaped keys are unescaped first, a
//     member given twice decodes into the value the first one left (a
//     repeated map merges, a repeated array decodes over the elements
//     already there), null leaves a scalar or struct alone and clears a
//     map, slice or pointer, and invalid UTF-8 in a string becomes U+FFFD.
//     Numbers must fit their field: 1e999, max_events -1 and partitions 1.0
//     are errors. Anything but whitespace after the document is an error.
//   - DecodeSimRequest and DecodeBatchRequest are strict, like a
//     json.Decoder with DisallowUnknownFields: an unknown member is an
//     error, so a client's typo fails loudly. DecodeReport and
//     DecodeBatchResponse are lenient, like json.Unmarshal: an unknown
//     member is skipped, without recursion, and nesting deeper than
//     encoding/json's 10,000 levels is an error.
//
// Every other body (uploads, circuit info, health, status, traces,
// topology, error answers) stays with encoding/json.
package wire

import "halotis/api"

// DecodeSimRequest decodes a single-run request body into r, strictly.
// Callers validate the result (api.SimRequest.Validate).
func DecodeSimRequest(data []byte, r *api.SimRequest) error {
	return decode(data, true, func(d *decoder) error { return d.simRequest(r) })
}

// DecodeBatchRequest decodes a batch request body into r, strictly.
// Callers validate the result (api.BatchRequest.Validate).
func DecodeBatchRequest(data []byte, r *api.BatchRequest) error {
	return decode(data, true, func(d *decoder) error { return d.batchRequest(r) })
}

// DecodeReport decodes a report body into r, leniently.
func DecodeReport(data []byte, r *api.Report) error {
	return decode(data, false, func(d *decoder) error { return d.report(r) })
}

// DecodeBatchResponse decodes a batch response body into r, leniently.
func DecodeBatchResponse(data []byte, r *api.BatchResponse) error {
	return decode(data, false, func(d *decoder) error { return d.batchResponse(r) })
}

// AppendSimRequest appends the JSON encoding of r to dst. On error it
// returns dst unextended.
func AppendSimRequest(dst []byte, r *api.SimRequest) ([]byte, error) {
	e := encoder{b: dst}
	e.simRequest(r)
	return e.result(dst)
}

// AppendBatchRequest appends the JSON encoding of r to dst. On error it
// returns dst unextended.
func AppendBatchRequest(dst []byte, r *api.BatchRequest) ([]byte, error) {
	e := encoder{b: dst}
	e.batchRequest(r)
	return e.result(dst)
}

// AppendReport appends the JSON encoding of r to dst. On error it returns
// dst unextended.
func AppendReport(dst []byte, r *api.Report) ([]byte, error) {
	e := encoder{b: dst}
	e.report(r)
	return e.result(dst)
}

// AppendBatchResponse appends the JSON encoding of r to dst. On error it
// returns dst unextended.
func AppendBatchResponse(dst []byte, r *api.BatchResponse) ([]byte, error) {
	e := encoder{b: dst}
	e.batchResponse(r)
	return e.result(dst)
}
