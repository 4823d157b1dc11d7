// Package server implements lejitd's HTTP serving layer: a JSON API over a
// dynamic micro-batching queue that coalesces concurrent requests into one
// core.DecodeRequests call, with bounded-queue backpressure (429 +
// Retry-After), per-request timeouts that cancel in-flight decodes, graceful
// drain, and a Prometheus-text /metrics endpoint. See DESIGN.md §8.
package server

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/rules"
)

// Supported per-request decode modes. ModeLeJIT is the default.
const (
	ModeLeJIT     = "lejit"
	ModeVanilla   = "vanilla"
	ModeRejection = "rejection"
	ModePostHoc   = "posthoc"
)

// DecodeRequest is the body of POST /v1/impute and POST /v1/generate.
type DecodeRequest struct {
	// Known holds the prompt fields for imputation (a grammar prefix, e.g.
	// the coarse counters). It must be absent for /v1/generate.
	Known rules.Record `json:"known,omitempty"`
	// Pack selects the domain pack (schema + rules + decode shape) this
	// request decodes under. Empty means the server's default pack. Known is
	// validated against the selected pack's schema, so validation happens
	// after pack resolution, not at parse time.
	Pack string `json:"pack,omitempty"`
	// Mode selects the decode strategy: lejit (default), vanilla, rejection,
	// or posthoc.
	Mode string `json:"mode,omitempty"`
	// Seed, when set, makes the response a deterministic function of the
	// request alone, independent of how requests were batched.
	Seed *int64 `json:"seed,omitempty"`
	// TimeoutMs overrides the server's default per-request timeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// NoPrefixCache opts this request out of the server's cross-request
	// prefix cache: its decode neither reuses cached transformer/solver
	// state nor leaves snapshots behind. The response is unchanged either
	// way (warm decodes are bit-identical); this is an isolation knob.
	NoPrefixCache bool `json:"no_prefix_cache,omitempty"`
	// Stream switches the response to Server-Sent Events: one "slot" event
	// per completed grammar slot as the decode proves it exact, then a
	// terminal "done" event carrying the full DecodeResponse (or an "error"
	// event). The concatenated slot texts are bit-identical to the unary
	// response's line field. Baseline modes (vanilla/rejection/posthoc)
	// produce no slot events — only the terminal event — because they are
	// not token-interruptible.
	Stream bool `json:"stream,omitempty"`
}

// CheckRequest is the body of POST /v1/check.
type CheckRequest struct {
	Record rules.Record `json:"record"`
	// Pack selects whose rules the record is checked against (empty means
	// the server's default pack).
	Pack string `json:"pack,omitempty"`
}

// StatsJSON is the wire form of core.Stats (the fields operators care about).
type StatsJSON struct {
	Tokens       int    `json:"tokens"`
	MaskedSteps  int    `json:"masked_steps"`
	ForcedSteps  int    `json:"forced_steps"`
	SolverChecks uint64 `json:"solver_checks"`
	Attempts     int    `json:"attempts,omitempty"`
}

// DecodeResponse is the body of a successful impute/generate response.
type DecodeResponse struct {
	Record rules.Record `json:"record"`
	// Line is the record rendered in the engine's grammar order (the
	// telemetry text format).
	Line       string    `json:"line"`
	Compliant  bool      `json:"compliant"`
	Violations []string  `json:"violations,omitempty"`
	Stats      StatsJSON `json:"stats"`
	// BatchSize reports how many requests shared this record's
	// core.DecodeRequests call (serving observability).
	BatchSize int `json:"batch_size"`
	// Pack names the domain pack that decoded this request; Epoch is that
	// pack's rule-epoch fingerprint (hex) at admission time, so a caller can
	// tell which rule generation produced the record across hot reloads.
	Pack  string `json:"pack,omitempty"`
	Epoch string `json:"epoch,omitempty"`
}

// PackInfoJSON is one entry of a GET /v1/packs response.
type PackInfoJSON struct {
	Name       string `json:"name"`
	Version    string `json:"version"`
	Epoch      string `json:"epoch"` // rule-epoch fingerprint, hex
	Generation int    `json:"generation"`
	Rules      int    `json:"rules"`
	Fields     int    `json:"fields"`
	Reloads    uint64 `json:"reloads"`
	ReloadErrs uint64 `json:"reload_errors"`
	Default    bool   `json:"default,omitempty"`
}

// PacksResponse is the body of GET /v1/packs.
type PacksResponse struct {
	Default string         `json:"default"`
	Packs   []PackInfoJSON `json:"packs"`
}

// ReloadRequest is the body of POST /v1/packs/reload: replace one pack's
// rule set from source text, recompiling off the hot path.
type ReloadRequest struct {
	Pack  string `json:"pack"`
	Rules string `json:"rules"`
}

// ReloadResponse reports the swapped-in bundle.
type ReloadResponse struct {
	Pack       string `json:"pack"`
	Epoch      string `json:"epoch"`
	Generation int    `json:"generation"`
	Rules      int    `json:"rules"`
}

// CheckResponse is the body of a /v1/check response.
type CheckResponse struct {
	Compliant  bool     `json:"compliant"`
	Violations []string `json:"violations"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error  string `json:"error"`
	Status string `json:"status,omitempty"` // machine-readable: e.g. "timeout", "infeasible", "overloaded"
}

// errBadRequest tags client errors so handlers can map them to 400. It
// wraps the underlying error so typed causes (e.g. *http.MaxBytesError)
// stay reachable via errors.As.
type errBadRequest struct{ err error }

func (e errBadRequest) Error() string { return e.err.Error() }
func (e errBadRequest) Unwrap() error { return e.err }

func badRequestf(format string, args ...any) error {
	return errBadRequest{fmt.Errorf(format, args...)}
}

// ParseDecodeRequest decodes and validates one impute/generate body.
// allowKnown distinguishes /v1/impute (prompt required to be well-formed if
// present) from /v1/generate (prompt forbidden). It never panics on
// malformed input — FuzzImputeRequest holds it to that.
func ParseDecodeRequest(r io.Reader, schema *rules.Schema, allowKnown bool) (*DecodeRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req DecodeRequest
	if err := dec.Decode(&req); err != nil {
		return nil, errBadRequest{fmt.Errorf("invalid JSON: %w", err)}
	}
	// Exactly one JSON value per body.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, badRequestf("trailing content after JSON body")
	}
	switch req.Mode {
	case "", ModeLeJIT, ModeVanilla, ModeRejection, ModePostHoc:
	default:
		return nil, badRequestf("unknown mode %q", req.Mode)
	}
	if req.Mode == "" {
		req.Mode = ModeLeJIT
	}
	if req.TimeoutMs < 0 {
		return nil, badRequestf("timeout_ms must be non-negative")
	}
	if !allowKnown && len(req.Known) > 0 {
		return nil, badRequestf("generate takes no known fields; use /v1/impute")
	}
	if len(req.Known) == 0 {
		req.Known = nil
	}
	if req.Known != nil && schema != nil {
		if err := validateRecord(req.Known, schema); err != nil {
			return nil, err
		}
	}
	return &req, nil
}

// ParseReloadRequest decodes and validates one /v1/packs/reload body.
func ParseReloadRequest(r io.Reader) (*ReloadRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req ReloadRequest
	if err := dec.Decode(&req); err != nil {
		return nil, errBadRequest{fmt.Errorf("invalid JSON: %w", err)}
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, badRequestf("trailing content after JSON body")
	}
	if req.Pack == "" {
		return nil, badRequestf("pack is required")
	}
	return &req, nil
}

// ParseCheckRequest decodes and validates one /v1/check body.
func ParseCheckRequest(r io.Reader, schema *rules.Schema) (*CheckRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req CheckRequest
	if err := dec.Decode(&req); err != nil {
		return nil, errBadRequest{fmt.Errorf("invalid JSON: %w", err)}
	}
	if len(req.Record) == 0 {
		return nil, badRequestf("record is required")
	}
	if schema != nil {
		if err := validateRecord(req.Record, schema); err != nil {
			return nil, err
		}
	}
	return &req, nil
}

// validateRecord checks a wire record against the schema: known fields only,
// correct arity, and values inside the field domain. Fields may cover any
// subset of the schema — whether the subset is a legal grammar prefix is the
// decoder's call (core.Engine rejects non-prefix prompts).
func validateRecord(rec rules.Record, schema *rules.Schema) error {
	for name, vals := range rec {
		f, ok := schema.Field(name)
		if !ok {
			return badRequestf("unknown field %q", name)
		}
		if len(vals) != f.Len {
			return badRequestf("field %q has %d values, schema wants %d", name, len(vals), f.Len)
		}
		for i, v := range vals {
			if v < f.Lo || v > f.Hi {
				return badRequestf("field %q[%d] = %d outside domain [%d,%d]", name, i, v, f.Lo, f.Hi)
			}
		}
	}
	return nil
}
