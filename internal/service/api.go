package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"

	"halotis/api"
	"halotis/internal/obs/flight"
	"halotis/internal/wire"
)

// The wire types of the HTTP/JSON API are the shared request/report
// surface of halotis/api — the same structs the in-process Local backend
// and the typed client speak, so the three layers cannot drift apart.
// These aliases exist so service code and tests read naturally; they add
// no parallel definitions.
type (
	UploadRequest   = api.UploadRequest
	UploadResponse  = api.UploadResponse
	CircuitInfo     = api.CircuitInfo
	Edge            = api.Edge
	InputWave       = api.InputWave
	Stimulus        = api.Stimulus
	Request         = api.Request
	Report          = api.Report
	SimRequest      = api.SimRequest
	BatchRequest    = api.BatchRequest
	BatchResponse   = api.BatchResponse
	ErrorResponse   = api.ErrorResponse
	HealthResponse  = api.HealthResponse
	Stats           = api.Stats
	Crossing        = api.Crossing
	Waveform        = api.Waveform
	ActivitySummary = api.ActivitySummary
	PowerSummary    = api.PowerSummary
)

// decodeJSON strictly decodes one JSON document: unknown fields and
// trailing data are errors, so client typos fail loudly instead of running
// a default-valued simulation. It decodes uploads, and it is the oracle the
// simulate codec (internal/wire) is tested against.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Token, unlike More, reports a stray closing bracket: only the end of
	// the input is clean.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// DecodeUploadRequest decodes and validates an upload payload.
func DecodeUploadRequest(r io.Reader) (*UploadRequest, error) {
	var req UploadRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeSimRequest reads, decodes and validates a single-run payload.
func DecodeSimRequest(r io.Reader) (*SimRequest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseSimRequest(data)
}

// ParseSimRequest decodes and validates a single-run payload held in
// memory, with the simulate codec (internal/wire).
func ParseSimRequest(data []byte) (*SimRequest, error) {
	var req SimRequest
	if err := wire.DecodeSimRequest(data, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeBatchRequest reads, decodes and validates a batch payload, with
// the simulate codec (internal/wire).
func DecodeBatchRequest(r io.Reader) (*BatchRequest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var req BatchRequest
	if err := wire.DecodeBatchRequest(data, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// BatchResponseOf assembles the batch response the replica and the router
// both send: slot i carries reports[i], or errs[i] as a typed wire error
// when that request failed. A response with a failed slot is partial, and
// the request's flight note records it so.
func BatchResponseOf(ctx context.Context, circuit string, reports []*Report, errs []error) *BatchResponse {
	resp := &BatchResponse{Circuit: circuit, Reports: make([]Report, len(reports))}
	for i, rep := range reports {
		if errs[i] != nil {
			if resp.Errors == nil {
				resp.Errors = make([]*ErrorResponse, len(reports))
			}
			resp.Errors[i] = api.ErrorResponseOf(errs[i])
			continue
		}
		resp.Reports[i] = *rep
	}
	if resp.Errors != nil {
		if n := flight.NoteFrom(ctx); n != nil {
			n.Partial = true
		}
	}
	return resp
}
