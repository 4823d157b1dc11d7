package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// --- Fixtures ---------------------------------------------------------------

// uniformLM assigns equal logits to every token (mirrors the core test
// fixture): a clueless model that leaves all steering to the rules.
type uniformLM struct{ vocab int }

func (u uniformLM) VocabSize() int { return u.vocab }
func (u uniformLM) NewSession() core.Session {
	return &uniformSession{logits: make([]float32, u.vocab)}
}

type uniformSession struct{ logits []float32 }

func (s *uniformSession) Append(tok int) error { return nil }
func (s *uniformSession) Logits() []float32    { return s.logits }

// gateLM blocks every decode on a shared gate channel until it is closed;
// the backpressure and drain tests use it to hold the batcher busy at a
// deterministic point.
type gateLM struct {
	vocab int
	gate  <-chan struct{}
}

func (g gateLM) VocabSize() int { return g.vocab }
func (g gateLM) NewSession() core.Session {
	return &gateSession{gate: g.gate, logits: make([]float32, g.vocab)}
}

type gateSession struct {
	gate   <-chan struct{}
	logits []float32
}

func (s *gateSession) Append(tok int) error { return nil }
func (s *gateSession) Logits() []float32    { <-s.gate; return s.logits }

const testRulesText = `
const BW = 60
const T  = 5
rule r1: forall t in 0..T-1: 0 <= I[t] and I[t] <= BW
rule r2: sum(I) == TotalIngress
rule r3: Congestion > 0 -> max(I) >= BW/2
`

// rulesTestSchema is usable from fuzz setup, which has no *testing.T.
func rulesTestSchema() *rules.Schema {
	return rules.MustSchema(
		rules.Field{Name: "TotalIngress", Kind: rules.Scalar, Lo: 0, Hi: 300},
		rules.Field{Name: "Congestion", Kind: rules.Scalar, Lo: 0, Hi: 100},
		rules.Field{Name: "I", Kind: rules.Vector, Len: 5, Lo: 0, Hi: 60},
	)
}

func testSchema(t *testing.T) *rules.Schema {
	t.Helper()
	return rulesTestSchema()
}

func testRuleSet(t *testing.T, schema *rules.Schema) *rules.RuleSet {
	t.Helper()
	rs, err := rules.ParseRuleSet(testRulesText, schema)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func testEngine(t *testing.T, lm core.LM) (*core.Engine, *rules.RuleSet, *rules.Schema) {
	t.Helper()
	schema := testSchema(t)
	rs := testRuleSet(t, schema)
	slots, err := core.TelemetryGrammar(schema, []string{"TotalIngress", "Congestion"}, "I")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.Config{
		LM: lm, Tok: vocab.Telemetry(), Schema: schema,
		Rules: rs, Slots: slots, Mode: core.LeJIT,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, rs, schema
}

// testPacks serves a hand-built engine as the single pack "default" through
// pack.FromEngine — the seam that lets a test put a FaultHook or a gated LM
// behind the server. cacheBytes is the registry's per-pack prefix-cache
// budget (0 disables the cache).
func testPacks(tb testing.TB, eng *core.Engine, rs *rules.RuleSet, schema *rules.Schema, cacheBytes int64) *pack.Registry {
	tb.Helper()
	pk, err := pack.FromEngine("default", eng, rs, schema)
	if err != nil {
		tb.Fatal(err)
	}
	reg := pack.NewRegistry(cacheBytes)
	if err := reg.Register(pk); err != nil {
		tb.Fatal(err)
	}
	return reg
}

// newTestServer builds a Server over a uniform LM, applies cfg tweaks, and
// registers cleanup.
func newTestServer(t *testing.T, tweak func(*Config)) *Server {
	t.Helper()
	eng, rs, schema := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()})
	cfg := Config{Packs: testPacks(t, eng, rs, schema, 0), DefaultPack: "default", Workers: 2, BatchWindow: time.Millisecond}
	if tweak != nil {
		tweak(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// --- Handler unit tests -----------------------------------------------------

func TestHandlerBadJSON(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, body := range []string{"", "{", `"just a string"`, `{"known": 12}`, `{"known": {}} trailing`} {
		resp, _ := postJSON(t, ts, "/v1/impute", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestHandlerUnknownMode(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, data := postJSON(t, ts, "/v1/impute", `{"mode": "telepathy"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "telepathy") {
		t.Errorf("error %q does not name the bad mode", e.Error)
	}
}

func TestHandlerOversizedPayload(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 64 })
	ts := httptest.NewServer(s)
	defer ts.Close()
	big := fmt.Sprintf(`{"known": %s{"TotalIngress": [1]}}`, strings.Repeat(" ", 200))
	resp, _ := postJSON(t, ts, "/v1/impute", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestHandlerUnknownField(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, _ := postJSON(t, ts, "/v1/impute", `{"known": {"Nonsense": [1]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/v1/impute", `{"known": {"TotalIngress": [9999]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-domain value: status %d, want 400", resp.StatusCode)
	}
}

// TestParseRejectsLookahead: the request schema has no lookahead field
// (there is one decode path, DESIGN.md §13), so a body that sends one is a
// client error that names the field, not a silently ignored knob.
func TestParseRejectsLookahead(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, data := postJSON(t, ts, "/v1/impute", `{"known": {"TotalIngress": [10]}, "lookahead": 4}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "lookahead") {
		t.Errorf("error %q does not name the lookahead field", e.Error)
	}
}

func TestGenerateRejectsKnown(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, _ := postJSON(t, ts, "/v1/generate", `{"known": {"TotalIngress": [10]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/impute")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

func TestCheckEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	good := `{"record": {"TotalIngress": [100], "Congestion": [10], "I": [30, 20, 10, 20, 20]}}`
	resp, data := postJSON(t, ts, "/v1/check", good)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (body %s)", resp.StatusCode, data)
	}
	var cr CheckResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Compliant || len(cr.Violations) != 0 {
		t.Errorf("compliant record reported %+v", cr)
	}

	// sum(I) != TotalIngress violates r2.
	bad := `{"record": {"TotalIngress": [100], "Congestion": [10], "I": [1, 1, 1, 1, 1]}}`
	resp, data = postJSON(t, ts, "/v1/check", bad)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (body %s)", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Compliant || len(cr.Violations) == 0 {
		t.Errorf("violating record reported %+v", cr)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, data := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if !bytes.Contains(data, []byte(`"ok"`)) {
		t.Errorf("healthz body %s", data)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestImputeBasic exercises the full path once: valid request → compliant
// record, stats populated, metrics counted.
func TestImputeBasic(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, data := postJSON(t, ts, "/v1/impute", `{"known": {"TotalIngress": [100], "Congestion": [10]}, "seed": 7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var dr DecodeResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Compliant {
		t.Errorf("response not compliant: %v", dr.Violations)
	}
	if dr.Stats.Tokens == 0 || dr.Stats.SolverChecks == 0 {
		t.Errorf("stats not populated: %+v", dr.Stats)
	}
	if dr.BatchSize < 1 {
		t.Errorf("batch size %d", dr.BatchSize)
	}
	if dr.Line == "" {
		t.Error("empty line rendering")
	}
	snap := s.Metrics().Snapshot()
	if snap.Requests["impute"][200] != 1 {
		t.Errorf("metrics: %+v", snap.Requests)
	}
	if snap.Tokens == 0 || snap.SolverChecks == 0 {
		t.Errorf("metrics decode counters empty: %+v", snap)
	}
}

// TestImputeSeedDeterminism: the same seed must return the same record, no
// matter how the two requests were batched with other traffic.
func TestImputeSeedDeterminism(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.BatchWindow = 10 * time.Millisecond; c.MaxBatch = 8 })
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := `{"known": {"TotalIngress": [120], "Congestion": [10]}, "seed": 42}`
	_, first := postJSON(t, ts, "/v1/impute", body)
	var want DecodeResponse
	if err := json.Unmarshal(first, &want); err != nil {
		t.Fatal(err)
	}

	// Re-issue the seeded request alongside background traffic so it lands
	// at a different batch position.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(t, ts, "/v1/impute", fmt.Sprintf(`{"known": {"TotalIngress": [%d], "Congestion": [0]}}`, 50+i))
		}(i)
	}
	_, again := postJSON(t, ts, "/v1/impute", body)
	wg.Wait()
	var got DecodeResponse
	if err := json.Unmarshal(again, &got); err != nil {
		t.Fatal(err)
	}
	if got.Line != want.Line {
		t.Errorf("seeded request not deterministic across batches:\n got %q\nwant %q", got.Line, want.Line)
	}
}

func TestMetricsEndpointRenders(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	postJSON(t, ts, "/v1/impute", `{"known": {"TotalIngress": [100], "Congestion": [10]}}`)
	resp, data := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{
		`lejitd_requests_total{route="impute",pack="default",code="200"} 1`,
		"lejitd_batches_total 1",
		"lejitd_queue_depth 0",
		"lejitd_batch_size_sum 1",
		"lejitd_batch_size_count 1",
		"lejitd_request_duration_seconds_count 1",
		"lejitd_tokens_total",
		"lejitd_solver_checks_total",
		"lejitd_budget_exhausted_total 0",
		"lejitd_panics_recovered_total 0",
		"lejitd_lanes_retired_total 0",
		"lejitd_batcher_restarts_total 0",
		"lejitd_batch_seconds_total ",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q:\n%s", want, data)
		}
	}
	for _, gone := range []string{"lejitd_shard_", "lejitd_router_drains_total"} {
		if strings.Contains(string(data), gone) {
			t.Errorf("metrics still export %q:\n%s", gone, data)
		}
	}
}
