package service

import "bytes"

// DecodeSimRequestJSON is ParseSimRequest with encoding/json in the
// codec's place: decodeJSON plus Validate, the codec's oracle. The codec
// benchmarks time it beside the codec.
func DecodeSimRequestJSON(data []byte) (*SimRequest, error) {
	var req SimRequest
	if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}
