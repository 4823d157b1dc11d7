package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/rules"
	"repro/internal/server"
)

// PackReport is the machine-readable domain-pack benchmark written as
// BENCH_7.json: one lejitd instance serving three packs (telemetry,
// routercfg, fincompliance) under an interleaved mixed workload, with a
// fincompliance rule hot-reload fired between the two halves of the run.
type PackReport struct {
	Requests    int `json:"requests"`
	Concurrency int `json:"concurrency"`
	NumCPU      int `json:"num_cpu"`
	GoMaxProcs  int `json:"gomaxprocs"`
	CacheMB     int `json:"cache_mb"`
	Errors      int `json:"errors"`

	// TelemetryMatchesDirect is the golden check: the telemetry pack served
	// over HTTP must reproduce, bit for bit, the records a directly
	// constructed engine decodes for the same prompts and seeds.
	TelemetryMatchesDirect bool `json:"telemetry_matches_direct"`

	Packs  []PackPhaseStats  `json:"packs"`
	Reload *PackReloadReport `json:"reload"`
}

// PackPhaseStats is one pack's share of the mixed workload.
type PackPhaseStats struct {
	Name          string  `json:"name"`
	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	Violations    int     `json:"violations"` // client-side re-check of every response
	MsPerRecord   float64 `json:"ms_per_record"`
	Tokens        uint64  `json:"tokens"`
	TokensPerSec  float64 `json:"tokens_per_sec"`
	PrefixHits    uint64  `json:"prefix_hits"`
	PrefixMisses  uint64  `json:"prefix_misses"`
	PrefixHitRate float64 `json:"prefix_hit_rate"`
}

// PackReloadReport records the mid-run hot reload: the fincompliance pack's
// CATMAX tightened from 80 to 75 between the two workload halves.
type PackReloadReport struct {
	Pack     string  `json:"pack"`
	OldEpoch string  `json:"old_epoch"`
	NewEpoch string  `json:"new_epoch"`
	ReloadMs float64 `json:"reload_ms"`
	// PostRequests fincompliance responses arrived after the reload;
	// PostViolations of them break the tightened rule set (want 0), and
	// PostOldEpoch of them still carry the pre-reload epoch (want 0 — the
	// reload returns only once the new bundle is swapped in).
	PostRequests   int `json:"post_requests"`
	PostViolations int `json:"post_violations"`
	PostOldEpoch   int `json:"post_old_epoch"`
}

// packBenchRequest is one prepared request of the mixed workload.
type packBenchRequest struct {
	pack string
	body []byte
	// prompt+seed let the telemetry golden check replay the request directly.
	prompt rules.Record
	seed   int64
}

// packBenchResult is one response with everything the report validates.
type packBenchResult struct {
	ok        bool
	latencyMs float64
	rec       rules.Record
	epoch     string
}

// ServeBenchConfig parameterizes the closed-loop HTTP workload of the pack
// benchmark.
type ServeBenchConfig struct {
	Requests    int           // total requests (default 128)
	Concurrency int           // concurrent clients (default 16)
	BatchWindow time.Duration // micro-batch window (default 2ms)
	MaxBatch    int           // records per batch cap (default 32)
	Workers     int           // goroutines per micro-batch (default Scale.Workers)
}

func (c *ServeBenchConfig) fill(sc ScaleConfig) {
	if c.Requests <= 0 {
		c.Requests = 128
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 16
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Workers <= 0 {
		c.Workers = sc.Workers
	}
}

// RunPackBench benchmarks multi-pack serving: it registers the three
// built-in packs (telemetry on the environment's trained model, routercfg
// and fincompliance on tiny transformers trained in-process on their example
// corpora), interleaves requests across them, hot-reloads the fincompliance
// rules halfway through, and reports per-pack latency, throughput, prefix
// hit rate, and rule compliance — plus the telemetry-vs-direct golden check.
func RunPackBench(env *Env, cfg ServeBenchConfig) (*PackReport, error) {
	cfg.fill(env.Scale)
	const cacheMB = 64

	reg := pack.NewRegistry(int64(cacheMB) << 20)
	teleEng, err := env.EngineFor(env.ImputeRules, core.LeJIT)
	if err != nil {
		return nil, err
	}
	telePk, err := pack.FromEngine(pack.TelemetryName, teleEng, env.ImputeRules, env.Schema)
	if err != nil {
		return nil, err
	}
	if err := reg.Register(telePk); err != nil {
		return nil, err
	}
	for _, def := range []pack.Definition{pack.RouterCfgDefinition(nil), pack.FinComplianceDefinition(nil)} {
		env.Logf("experiments: pack bench — training %s model (%d examples)", def.Name, len(def.Examples))
		if err := pack.TrainLM(&def, pack.TrainLMConfig{Logf: env.Logf}); err != nil {
			return nil, fmt.Errorf("experiments: pack %s: %w", def.Name, err)
		}
		pk, err := pack.Compile(def)
		if err != nil {
			return nil, fmt.Errorf("experiments: pack %s: %w", def.Name, err)
		}
		if err := reg.Register(pk); err != nil {
			return nil, err
		}
	}

	srv, err := server.New(server.Config{
		Packs: reg, DefaultPack: pack.TelemetryName,
		BatchWindow: cfg.BatchWindow, MaxBatch: cfg.MaxBatch, Workers: cfg.Workers,
		QueueDepth: cfg.Requests + cfg.Concurrency,
		Seed:       env.Scale.Seed,
	})
	if err != nil {
		return nil, err
	}
	base, shutdown, err := listenAndServe(srv)
	if err != nil {
		return nil, err
	}

	reqs, err := buildPackWorkload(env, cfg.Requests)
	if err != nil {
		shutdown()
		return nil, err
	}
	env.Logf("experiments: pack bench — %d requests over %v, %d clients, reload at halfway",
		len(reqs), reg.Names(), cfg.Concurrency)

	finPk, _ := reg.Get(pack.FinComplianceName)
	oldEpoch := finPk.EpochHex()
	tightRules := strings.Replace(pack.FinComplianceRules, "CATMAX = 80", "CATMAX = 75", 1)
	tightSet, err := rules.ParseRuleSet(tightRules, pack.FinComplianceSchema())
	if err != nil {
		shutdown()
		return nil, err
	}

	half := len(reqs) / 2
	wallStart := time.Now()
	resultsA := runPackWorkload(base, reqs[:half], cfg.Concurrency)

	reloadStart := time.Now()
	newEpoch, err := reloadPack(base, pack.FinComplianceName, tightRules)
	reloadMs := float64(time.Since(reloadStart).Microseconds()) / 1000
	if err != nil {
		shutdown()
		return nil, fmt.Errorf("experiments: pack bench reload: %w", err)
	}

	resultsB := runPackWorkload(base, reqs[half:], cfg.Concurrency)
	elapsed := time.Since(wallStart)

	snap := srv.Metrics().Snapshot()
	if err := shutdown(); err != nil {
		return nil, fmt.Errorf("experiments: pack bench server: %w", err)
	}

	results := append(resultsA, resultsB...)
	rep := &PackReport{
		Requests: len(reqs), Concurrency: cfg.Concurrency,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		CacheMB: cacheMB,
		Reload: &PackReloadReport{
			Pack: pack.FinComplianceName, OldEpoch: oldEpoch, NewEpoch: newEpoch,
			ReloadMs: reloadMs,
		},
	}

	// Per-pack stats: latency from the client side, tokens and prefix
	// counters from the server's per-pack snapshot over the whole run.
	rulesets := map[string]*rules.RuleSet{
		pack.TelemetryName:     env.ImputeRules,
		pack.RouterCfgName:     mustPackRules(pack.RouterCfgDefinition(nil)),
		pack.FinComplianceName: mustPackRules(pack.FinComplianceDefinition(nil)),
	}
	for _, name := range []string{pack.TelemetryName, pack.RouterCfgName, pack.FinComplianceName} {
		st := PackPhaseStats{Name: name}
		var totalMs float64
		for i, r := range results {
			if reqs[i].pack != name {
				continue
			}
			st.Requests++
			if !r.ok {
				st.Errors++
				continue
			}
			totalMs += r.latencyMs
			if v, err := rulesets[name].Violations(r.rec); err != nil || len(v) > 0 {
				st.Violations++
			}
		}
		if n := st.Requests - st.Errors; n > 0 {
			st.MsPerRecord = totalMs / float64(n)
		}
		if ps, ok := snap.Packs[name]; ok {
			st.Tokens = ps.Tokens
			st.PrefixHits = ps.Prefix.Hits
			st.PrefixMisses = ps.Prefix.Misses
			if lookups := ps.Prefix.Hits + ps.Prefix.Misses; lookups > 0 {
				st.PrefixHitRate = float64(ps.Prefix.Hits) / float64(lookups)
			}
			if elapsed > 0 {
				// Throughput this pack achieved within the shared mixed run —
				// the three packs decode concurrently over the same wall
				// clock, so the rates add up to the server's total.
				st.TokensPerSec = float64(ps.Tokens) / elapsed.Seconds()
			}
		}
		rep.Errors += st.Errors
		rep.Packs = append(rep.Packs, st)
	}

	// Post-reload fincompliance responses must carry the new epoch and obey
	// the tightened rules.
	for i := half; i < len(reqs); i++ {
		if reqs[i].pack != pack.FinComplianceName || !results[i].ok {
			continue
		}
		rep.Reload.PostRequests++
		if results[i].epoch == oldEpoch {
			rep.Reload.PostOldEpoch++
		}
		if v, err := tightSet.Violations(results[i].rec); err != nil || len(v) > 0 {
			rep.Reload.PostViolations++
		}
	}

	rep.TelemetryMatchesDirect, err = telemetryGolden(env, reqs, results)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func mustPackRules(def pack.Definition) *rules.RuleSet {
	rs, err := rules.ParseRuleSet(def.RuleText, def.Schema)
	if err != nil {
		panic(err)
	}
	return rs
}

// listenAndServe starts srv on an ephemeral port; shutdown stops it and
// returns Serve's error.
func listenAndServe(srv *server.Server) (string, func() error, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, l) }()
	return "http://" + l.Addr().String(), func() error {
		cancel()
		return <-serveErr
	}, nil
}

// buildPackWorkload interleaves the three packs round-robin with pinned
// seeds: telemetry prompts cluster over a few coarse records (so the prefix
// cache has something to hit), routercfg and fincompliance prompts come from
// their example corpora.
func buildPackWorkload(env *Env, n int) ([]packBenchRequest, error) {
	test := env.TestRecordsN(0)
	if len(test) == 0 {
		return nil, fmt.Errorf("experiments: no test records for pack bench")
	}
	const clusters = 4
	routerDef := pack.RouterCfgDefinition(nil)
	routerEx := pack.RouterCfgExamples(64, 101)
	finDef := pack.FinComplianceDefinition(nil)
	finEx := pack.FinComplianceExamples(64, 102)

	reqs := make([]packBenchRequest, 0, n)
	for i := 0; i < n; i++ {
		var r packBenchRequest
		r.seed = env.Scale.Seed + 200_000 + int64(i)
		switch i % 3 {
		case 0:
			r.pack = pack.TelemetryName
			r.prompt = CoarseOf(test[i%clusters%len(test)])
		case 1:
			r.pack = pack.RouterCfgName
			r.prompt = routerDef.PromptOf(routerEx[i%len(routerEx)])
		default:
			r.pack = pack.FinComplianceName
			r.prompt = finDef.PromptOf(finEx[i%len(finEx)])
		}
		body, err := json.Marshal(map[string]any{"pack": r.pack, "known": r.prompt, "seed": r.seed})
		if err != nil {
			return nil, err
		}
		r.body = body
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// runPackWorkload fires reqs at base with the given concurrency and returns
// one result per request, index-aligned.
func runPackWorkload(base string, reqs []packBenchRequest, concurrency int) []packBenchResult {
	client := &http.Client{}
	results := make([]packBenchResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/impute", "application/json", bytes.NewReader(reqs[i].body))
				if err != nil {
					continue
				}
				var dr server.DecodeResponse
				decErr := json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if decErr != nil || resp.StatusCode != http.StatusOK || !dr.Compliant {
					continue
				}
				results[i] = packBenchResult{
					ok: true, latencyMs: float64(time.Since(t0).Microseconds()) / 1000,
					rec: dr.Record, epoch: dr.Epoch,
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// reloadPack posts new rule text to /v1/packs/reload and returns the new
// epoch.
func reloadPack(base, name, ruleText string) (string, error) {
	body, err := json.Marshal(server.ReloadRequest{Pack: name, Rules: ruleText})
	if err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/v1/packs/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var rr server.ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("reload status %d", resp.StatusCode)
	}
	return rr.Epoch, nil
}

// telemetryGolden replays up to 8 of the workload's telemetry requests on a
// freshly constructed engine (same model, same rules, no server in the loop)
// and demands bit-identical records.
func telemetryGolden(env *Env, reqs []packBenchRequest, results []packBenchResult) (bool, error) {
	eng, err := env.EngineFor(env.ImputeRules, core.LeJIT)
	if err != nil {
		return false, err
	}
	checked := 0
	for i := range reqs {
		if reqs[i].pack != pack.TelemetryName || !results[i].ok {
			continue
		}
		seed := reqs[i].seed
		out, err := eng.DecodeRequests(context.Background(),
			[]core.BatchRequest{{Prompt: reqs[i].prompt, Seed: &seed}}, 1, 0, nil)
		if err != nil {
			return false, err
		}
		if out[0].Err != nil {
			return false, out[0].Err
		}
		if !reflect.DeepEqual(out[0].Res.Rec, results[i].rec) {
			return false, nil
		}
		if checked++; checked >= 8 {
			break
		}
	}
	return checked > 0, nil
}

// WriteJSON writes the report to path, pretty-printed.
func (r *PackReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// PackTable renders the report for the text output.
func PackTable(r *PackReport) Table {
	t := Table{
		Title:  "Packs: mixed-domain serving with a mid-run rule hot-reload",
		Header: []string{"metric", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"requests", itoa(r.Requests)},
		[]string{"concurrency", itoa(r.Concurrency)},
		[]string{"errors", itoa(r.Errors)},
		[]string{"telemetry == direct", fmt.Sprintf("%v", r.TelemetryMatchesDirect)},
	)
	for _, p := range r.Packs {
		t.Rows = append(t.Rows, []string{
			p.Name,
			fmt.Sprintf("%s ms/rec, %s tok/s, %.0f%% prefix hits, %d violations",
				f1(p.MsPerRecord), f1(p.TokensPerSec), 100*p.PrefixHitRate, p.Violations),
		})
	}
	if rl := r.Reload; rl != nil {
		t.Rows = append(t.Rows,
			[]string{"reload", fmt.Sprintf("%s %s -> %s in %s ms", rl.Pack, rl.OldEpoch[:8], rl.NewEpoch[:8], f1(rl.ReloadMs))},
			[]string{"post-reload", fmt.Sprintf("%d requests, %d violations, %d stale-epoch", rl.PostRequests, rl.PostViolations, rl.PostOldEpoch)},
		)
	}
	return t
}
