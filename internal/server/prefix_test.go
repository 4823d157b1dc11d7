package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/vocab"
)

// newPrefixTestServer builds a Server over a real (tiny, untrained)
// transformer with the prefix cache enabled — the uniform mock LM used by the
// other tests never participates in the cache (snapshots are frozen
// nn.Sessions), so these tests need the real thing.
func newPrefixTestServer(t *testing.T) *Server {
	t.Helper()
	m, err := nn.New(nn.Config{
		Vocab: vocab.Telemetry().Size(), Ctx: 48, Dim: 16, Heads: 2, Layers: 2,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, rs, schema := testEngine(t, core.WrapNN(m))
	s, err := New(Config{
		Packs: testPacks(t, eng, rs, schema, 16<<20), DefaultPack: "default",
		Workers: 2, BatchWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestServerPrefixCacheWarmsAcrossBatches: the same seeded impute posted
// repeatedly hits the prefix cache from the second request on (the cache
// lives on the engine, not the batch), answers byte-identically, and the
// counters surface in both the programmatic snapshot and /metrics.
func TestServerPrefixCacheWarmsAcrossBatches(t *testing.T) {
	s := newPrefixTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const body = `{"known": {"TotalIngress": [120], "Congestion": [10]}, "seed": 5}`
	var lines []string
	for i := 0; i < 3; i++ {
		resp, data := postJSON(t, ts, "/v1/impute", body)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
		var out DecodeResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, out.Line)
	}
	for i, l := range lines {
		if l != lines[0] {
			t.Fatalf("response %d line %q != first %q (warm decode diverged)", i, l, lines[0])
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.Prefix.Inserts == 0 {
		t.Fatal("no snapshots captured")
	}
	if snap.Prefix.Hits == 0 {
		t.Fatal("no prefix-cache hits across identical requests")
	}

	rec := httptest.NewRecorder()
	s.Metrics().WritePrometheus(rec)
	text := rec.Body.String()
	for _, metric := range []string{
		"lejitd_prefix_hits_total", "lejitd_prefix_misses_total",
		"lejitd_prefix_evictions_total", "lejitd_prefix_cache_bytes",
		"lejitd_prefix_cache_entries",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics output missing %s", metric)
		}
	}
	if !strings.Contains(text, fmt.Sprintf(`lejitd_prefix_hits_total{pack="default"} %d`, snap.Prefix.Hits)) {
		t.Errorf("hits counter mismatch between snapshot and exposition:\n%s", text)
	}
}

// TestServerPrefixCacheOptOut: no_prefix_cache requests decode identically
// but never read the cache.
func TestServerPrefixCacheOptOut(t *testing.T) {
	s := newPrefixTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const warm = `{"known": {"TotalIngress": [120], "Congestion": [10]}, "seed": 5}`
	resp, data := postJSON(t, ts, "/v1/impute", warm)
	if resp.StatusCode != 200 {
		t.Fatalf("warmup: status %d: %s", resp.StatusCode, data)
	}
	var base DecodeResponse
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	before := s.Metrics().Snapshot().Prefix

	const optOut = `{"known": {"TotalIngress": [120], "Congestion": [10]}, "seed": 5, "no_prefix_cache": true}`
	resp, data = postJSON(t, ts, "/v1/impute", optOut)
	if resp.StatusCode != 200 {
		t.Fatalf("opt-out: status %d: %s", resp.StatusCode, data)
	}
	var out DecodeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Line != base.Line {
		t.Fatalf("opted-out decode %q != cached-path decode %q", out.Line, base.Line)
	}
	after := s.Metrics().Snapshot().Prefix
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("opted-out request touched the cache: hits %d->%d misses %d->%d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
}
