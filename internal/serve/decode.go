package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// DecodeRequestBytes parses one simulation request body: strict JSON
// (unknown fields and trailing data rejected, mirroring the sweep store's
// record decoder), then Normalize — so the returned Spec is always
// validated, defaulted, and safe to Key and simulate. The caller bounds the
// body (the HTTP handler reads it through http.MaxBytesReader).
func DecodeRequestBytes(data []byte) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("malformed request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("malformed request: trailing data after JSON object")
	}
	if err := sp.Normalize(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}
