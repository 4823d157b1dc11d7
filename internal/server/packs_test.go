package server

import (
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
	"repro/internal/nn"
	"repro/internal/pack"
	"repro/internal/rules"
)

// newPackTestServer builds a Server over a multi-pack registry: the two
// built-in domain packs (uniform LMs) plus whatever tweak adds.
func newPackTestServer(t *testing.T, cacheBytes int64, tweak func(*Config)) *Server {
	t.Helper()
	reg := pack.NewRegistry(cacheBytes)
	for _, def := range []pack.Definition{pack.RouterCfgDefinition(nil), pack.FinComplianceDefinition(nil)} {
		pk, err := pack.Compile(def)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(pk); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Packs: reg, DefaultPack: pack.RouterCfgName, Workers: 2, BatchWindow: time.Millisecond}
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

// TestPackSelectionEndToEnd decodes through lejitd's HTTP surface with
// per-request pack selection: each pack's responses obey its own rules and
// carry its name and epoch.
func TestPackSelectionEndToEnd(t *testing.T) {
	s := newPackTestServer(t, 0, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		body     string
		wantPack string
	}{
		{`{"pack": "routercfg", "known": {"NumAcls": [3]}, "seed": 1}`, "routercfg"},
		{`{"pack": "fincompliance", "known": {"TotalExposure": [120], "RiskScore": [80], "Escalate": [1]}, "seed": 2}`, "fincompliance"},
		{`{"known": {"NumAcls": [2]}, "seed": 3}`, "routercfg"}, // default pack
	}
	for i, tc := range cases {
		resp, data := postJSON(t, ts, "/v1/impute", tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("case %d: status %d: %s", i, resp.StatusCode, data)
		}
		var out DecodeResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Pack != tc.wantPack {
			t.Errorf("case %d: pack %q, want %q", i, out.Pack, tc.wantPack)
		}
		if !out.Compliant || len(out.Violations) != 0 {
			t.Errorf("case %d: violations %v", i, out.Violations)
		}
		pk, _ := s.packs.Get(tc.wantPack)
		if out.Epoch != pk.EpochHex() {
			t.Errorf("case %d: epoch %q, want %q", i, out.Epoch, pk.EpochHex())
		}
		// The record must be the selected pack's shape, not another's.
		if err := pk.Schema.Validate(out.Record); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}

	// Unknown pack: 400 with machine-readable status, never a decode.
	resp, data := postJSON(t, ts, "/v1/impute", `{"pack": "nope", "known": {"NumAcls": [1]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown pack: status %d: %s", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Status != "unknown_pack" {
		t.Errorf("unknown pack status %q, want unknown_pack", e.Status)
	}

	// Known fields validate against the selected pack's schema: NumAcls is
	// not a fincompliance field.
	resp, _ = postJSON(t, ts, "/v1/impute", `{"pack": "fincompliance", "known": {"NumAcls": [1]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-pack field: status %d, want 400", resp.StatusCode)
	}

	// /v1/check is pack-scoped too.
	resp, data = postJSON(t, ts, "/v1/check",
		`{"pack": "fincompliance", "record": {"TotalExposure": [90], "RiskScore": [10], "Escalate": [0], "Exposure": [90, 0, 0, 0]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check: status %d: %s", resp.StatusCode, data)
	}
	var chk CheckResponse
	if err := json.Unmarshal(data, &chk); err != nil {
		t.Fatal(err)
	}
	if chk.Compliant || len(chk.Violations) == 0 {
		t.Errorf("check: Exposure[0]=90 should violate catlimit, got %+v", chk)
	}

	// Per-pack metrics split.
	snap := s.Metrics().Snapshot()
	if got := snap.Packs["routercfg"].Requests["impute"][200]; got != 2 {
		t.Errorf("routercfg impute 200s = %d, want 2", got)
	}
	if got := snap.Packs["fincompliance"].Requests["impute"][200]; got != 1 {
		t.Errorf("fincompliance impute 200s = %d, want 1", got)
	}
	if snap.Packs["routercfg"].Tokens == 0 || snap.Packs["fincompliance"].Tokens == 0 {
		t.Errorf("per-pack token counters not split: %+v", snap.Packs)
	}
}

func TestPacksListingEndpoint(t *testing.T) {
	s := newPackTestServer(t, 0, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/packs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out PacksResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Default != pack.RouterCfgName || len(out.Packs) != 2 {
		t.Fatalf("listing %+v", out)
	}
	for _, info := range out.Packs {
		if info.Epoch == "" || info.Generation != 1 || info.Rules == 0 {
			t.Errorf("bad info %+v", info)
		}
		if info.Default != (info.Name == pack.RouterCfgName) {
			t.Errorf("default flag wrong on %+v", info)
		}
	}

	if resp, _ := postJSON(t, ts, "/v1/packs", `{}`); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/packs: %d, want 405", resp.StatusCode)
	}
}

func TestPackReloadEndpoint(t *testing.T) {
	s := newPackTestServer(t, 0, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	before, _ := s.packs.Get(pack.FinComplianceName)

	// Happy path: tighten CATMAX, decodes pick up the new rules.
	tightened := strings.ReplaceAll(pack.FinComplianceRules, "CATMAX = 80", "CATMAX = 75")
	body, _ := json.Marshal(ReloadRequest{Pack: pack.FinComplianceName, Rules: tightened})
	resp, data := postJSON(t, ts, "/v1/packs/reload", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d: %s", resp.StatusCode, data)
	}
	var out ReloadResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Generation != 2 || out.Epoch == before.EpochHex() || out.Rules == 0 {
		t.Fatalf("reload response %+v (old epoch %s)", out, before.EpochHex())
	}
	resp, data = postJSON(t, ts, "/v1/impute",
		`{"pack": "fincompliance", "known": {"TotalExposure": [150], "RiskScore": [10], "Escalate": [1]}, "seed": 9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload decode: %d: %s", resp.StatusCode, data)
	}
	var dec DecodeResponse
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Epoch != out.Epoch {
		t.Errorf("post-reload decode epoch %q, want %q", dec.Epoch, out.Epoch)
	}
	for _, v := range dec.Record["Exposure"] {
		if v > 75 {
			t.Errorf("post-reload Exposure %d > 75", v)
		}
	}

	// Unknown pack: 404.
	resp, data = postJSON(t, ts, "/v1/packs/reload", `{"pack": "nope", "rules": ""}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown reload: %d: %s", resp.StatusCode, data)
	}

	// Bad rules: 400 with status bad_rules; pack keeps serving generation 2.
	resp, data = postJSON(t, ts, "/v1/packs/reload",
		fmt.Sprintf(`{"pack": %q, "rules": "rule x: Nope >= 1"}`, pack.FinComplianceName))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad reload: %d: %s", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Status != "bad_rules" {
		t.Errorf("bad reload status %q, want bad_rules", e.Status)
	}
	cur, _ := s.packs.Get(pack.FinComplianceName)
	if cur.Generation != 2 {
		t.Errorf("failed reload moved generation to %d", cur.Generation)
	}

	// Missing pack field: 400.
	if resp, _ := postJSON(t, ts, "/v1/packs/reload", `{"rules": ""}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("packless reload: %d, want 400", resp.StatusCode)
	}

	// Reload counters surface in /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(mbody)
	if !strings.Contains(text, `lejitd_pack_reloads_total{pack="fincompliance"} 1`) {
		t.Errorf("metrics missing reload counter:\n%s", text)
	}
	if !strings.Contains(text, `lejitd_pack_reload_errors_total{pack="fincompliance"} 1`) {
		t.Errorf("metrics missing reload error counter:\n%s", text)
	}
}

// TestPackReloadWhileDraining: reloads are management-plane writes; a
// draining server refuses them like it refuses decodes.
func TestPackReloadWhileDraining(t *testing.T) {
	s := newPackTestServer(t, 0, nil)
	s.draining.Store(true)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, _ := postJSON(t, ts, "/v1/packs/reload",
		fmt.Sprintf(`{"pack": %q, "rules": ""}`, pack.RouterCfgName))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining reload: %d, want 503", resp.StatusCode)
	}
}

// TestMixedPackBatchGrouping: concurrent requests against different packs
// admitted into one batcher window decode correctly — each group runs on its
// own pack's engine and reports its own batch size.
func TestMixedPackBatchGrouping(t *testing.T) {
	s := newPackTestServer(t, 0, func(cfg *Config) { cfg.BatchWindow = 20 * time.Millisecond })
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pk, body := pack.RouterCfgName, fmt.Sprintf(`{"pack": "routercfg", "known": {"NumAcls": [%d]}, "seed": %d}`, 1+i%5, i)
			if i%2 == 1 {
				pk = pack.FinComplianceName
				body = fmt.Sprintf(`{"pack": "fincompliance", "known": {"TotalExposure": [%d], "RiskScore": [10], "Escalate": [1]}, "seed": %d}`, 50+i, i)
			}
			resp, data := postJSON(t, ts, "/v1/impute", body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("req %d: %d %s", i, resp.StatusCode, data)
				return
			}
			var out DecodeResponse
			if err := json.Unmarshal(data, &out); err != nil {
				errs <- err.Error()
				return
			}
			if out.Pack != pk {
				errs <- fmt.Sprintf("req %d: pack %q, want %q", i, out.Pack, pk)
			}
			if !out.Compliant {
				errs <- fmt.Sprintf("req %d: violations %v", i, out.Violations)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestReloadUnderLoad hammers /v1/impute while concurrently flip-flopping
// the pack's rule set: every response must be compliant under the rule set
// matching its reported epoch, in-flight requests finish on their
// admission-time epoch, and stale prefix-cache entries are evicted rather
// than replayed. Run with -race in CI (Makefile verify).
func TestReloadUnderLoad(t *testing.T) {
	// A real (untrained) transformer so the prefix cache participates; small
	// enough that decodes are fast.
	reg := pack.NewRegistry(8 << 20)
	def := pack.FinComplianceDefinition(nil)
	tok, err := def.Tokenizer()
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.New(nn.Config{Vocab: tok.Size(), Ctx: 64, Dim: 16, Heads: 2, Layers: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	def.LM = core.WrapNN(m)
	pk, err := pack.Compile(def)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(pk); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Packs: reg, DefaultPack: pack.FinComplianceName,
		Workers: 2, BatchWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// The two rule sets that alternate: shipped (CATMAX 80) and tightened
	// (CATMAX 75). Example prompts stay feasible under both.
	loose := pack.FinComplianceRules
	tight := strings.ReplaceAll(loose, "CATMAX = 80", "CATMAX = 75")
	looseRS, err := rules.ParseRuleSet(loose, def.Schema)
	if err != nil {
		t.Fatal(err)
	}
	tightRS, err := rules.ParseRuleSet(tight, def.Schema)
	if err != nil {
		t.Fatal(err)
	}
	epochRules := map[string]*rules.RuleSet{pk.EpochHex(): looseRS}

	// Resolve both epochs up front (reload is deterministic per text).
	next, err := reg.Reload(pack.FinComplianceName, tight)
	if err != nil {
		t.Fatal(err)
	}
	epochRules[next.EpochHex()] = tightRS

	// The reloader is paced by decode traffic, not a sleep: each served
	// impute tickles pace (non-blocking), and the reloader flips the rules
	// once per tickle. Reloads and decodes stay interleaved at whatever rate
	// the host actually sustains.
	stop := make(chan struct{})
	pace := make(chan struct{}, 1)
	var reloads sync.WaitGroup
	reloads.Add(1)
	go func() {
		defer reloads.Done()
		texts := []string{loose, tight}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-pace:
			}
			body, _ := json.Marshal(ReloadRequest{Pack: pack.FinComplianceName, Rules: texts[i%2]})
			resp, err := http.Post(ts.URL+"/v1/packs/reload", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()

	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	// Five prompts, each posted 20 times across the run (with distinct
	// seeds): a prompt cached under one epoch is asked for again under the
	// other, so its stale entry is looked up at its own key and dropped.
	examples := pack.FinComplianceExamples(5, 77)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ex := examples[(w*perWorker+i)%len(examples)]
				body := fmt.Sprintf(
					`{"known": {"TotalExposure": [%d], "RiskScore": [%d], "Escalate": [%d]}, "seed": %d}`,
					ex["TotalExposure"][0], ex["RiskScore"][0], ex["Escalate"][0], w*perWorker+i)
				resp, data := postJSON(t, ts, "/v1/impute", body)
				select {
				case pace <- struct{}{}:
				default:
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("worker %d req %d: %d %s", w, i, resp.StatusCode, data)
					continue
				}
				var out DecodeResponse
				if err := json.Unmarshal(data, &out); err != nil {
					errs <- err.Error()
					continue
				}
				rs, ok := epochRules[out.Epoch]
				if !ok {
					errs <- fmt.Sprintf("response carries unknown epoch %q", out.Epoch)
					continue
				}
				viol, err := rs.Violations(out.Record)
				if err != nil {
					errs <- err.Error()
					continue
				}
				if len(viol) > 0 {
					errs <- fmt.Sprintf("epoch %s decode violates its own rules: %v (%v)", out.Epoch, viol, out.Record)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reloads.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	snap := s.Metrics().Snapshot()
	ps := snap.Packs[pack.FinComplianceName]
	if ps.Reloads < 2 {
		t.Errorf("reloads %d, want >= 2", ps.Reloads)
	}
	// Epoch flips invalidate cached snapshots on sight: with repeated
	// prompts crossing at least two epochs, evictions must have happened.
	if ps.Prefix.Inserts > 0 && ps.Prefix.Evictions == 0 {
		t.Errorf("prefix cache saw %d inserts but no evictions across epoch flips", ps.Prefix.Inserts)
	}
}
