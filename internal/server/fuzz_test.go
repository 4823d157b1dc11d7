package server

import (
	"bytes"
	"testing"
)

// FuzzImputeRequest: arbitrary client bytes must parse or error, never
// panic — a malformed request can never take the daemon down. Anything
// accepted must be normalized (a known mode, non-negative timeout, no empty
// known map).
func FuzzImputeRequest(f *testing.F) {
	f.Add([]byte(`{"known": {"TotalIngress": [100], "Congestion": [8]}, "seed": 1}`))
	f.Add([]byte(`{"known": {"I": [1,2,3,4,5]}, "mode": "rejection", "timeout_ms": 50}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"mode": "telepathy"}`))
	f.Add([]byte(`{"known": 12}`))
	f.Add([]byte(`{"known": {"TotalIngress": [999999999999999999]}}`))
	f.Add([]byte(`{"known": {"TotalIngress": [1]}} {"again": true}`))
	f.Add([]byte(`{"seed": -9223372036854775808, "timeout_ms": -1}`))
	f.Add([]byte(`{"unknown_key": true}`))

	schema := rulesTestSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseDecodeRequest(bytes.NewReader(data), schema, true)
		if err != nil {
			return
		}
		switch req.Mode {
		case ModeLeJIT, ModeVanilla, ModeRejection, ModePostHoc:
		default:
			t.Fatalf("accepted request has unnormalized mode %q", req.Mode)
		}
		if req.TimeoutMs < 0 {
			t.Fatalf("accepted request has negative timeout %d", req.TimeoutMs)
		}
		if req.Known != nil && len(req.Known) == 0 {
			t.Fatal("accepted request has empty non-nil known map")
		}
		// The check decoder and the schema validation the check handler runs
		// after it must be panic-free on the same input too.
		if creq, err := ParseCheckRequest(bytes.NewReader(data)); err == nil {
			_ = validateRecord(creq.Record, schema)
		}
	})
}
