package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/prefixcache"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// Prefix-cache integration tests: the golden property is that a warm decode
// (prefix restored from the cache) is bit-identical to a cold decode of the
// same (prompt, seed) — on both the solo per-record path and the lock-step
// GEMM path — and that stale snapshots are never served.

// nnPrefixEngine is nnTestEngine with a prefix cache attached and optional
// rule-text override (for cross-epoch tests).
func nnPrefixEngine(tb testing.TB, cache *prefixcache.Cache, ruleSrc string) *Engine {
	tb.Helper()
	schema := rules.MustSchema(
		rules.Field{Name: "TotalIngress", Kind: rules.Scalar, Lo: 0, Hi: 300},
		rules.Field{Name: "Congestion", Kind: rules.Scalar, Lo: 0, Hi: 100},
		rules.Field{Name: "I", Kind: rules.Vector, Len: 5, Lo: 0, Hi: 60},
	)
	if ruleSrc == "" {
		ruleSrc = testRules
	}
	rs, err := rules.ParseRuleSet(ruleSrc, schema)
	if err != nil {
		tb.Fatal(err)
	}
	slots, err := TelemetryGrammar(schema, []string{"TotalIngress", "Congestion"}, "I")
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEngine(Config{
		LM: WrapNN(nnTestModel(tb)), Tok: vocab.Telemetry(), Schema: schema,
		Rules: rs, Slots: slots, Mode: LeJIT, PrefixCache: cache,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestPrefixWarmMatchesColdSolo: decode the same prompt twice on the solo
// path. The first pass populates the cache; the second starts warm and must
// produce the identical record with identical sampled-token count, matching
// a decode on a cache-free engine bit for bit.
func TestPrefixWarmMatchesColdSolo(t *testing.T) {
	prompt := rules.Record{"TotalIngress": {120}, "Congestion": {10}}
	const seed = 99

	cold := nnTestEngine(t) // no cache
	want, err := cold.Impute(prompt, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}

	e := nnPrefixEngine(t, prefixcache.New(16<<20), "")
	first, err := e.Impute(prompt, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PrefixHitTokens != 0 {
		t.Fatalf("first pass hit %d tokens on an empty cache", first.Stats.PrefixHitTokens)
	}
	if first.Stats.PrefixCaptures == 0 {
		t.Fatal("first pass captured no snapshots")
	}
	if !reflect.DeepEqual(first.Rec, want.Rec) {
		t.Fatalf("caching engine (cold) decoded %v, cache-free %v", first.Rec, want.Rec)
	}

	warm, err := e.Impute(prompt, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.PrefixHitTokens == 0 {
		t.Fatal("second pass of an identical prompt did not hit the cache")
	}
	if !reflect.DeepEqual(warm.Rec, want.Rec) {
		t.Fatalf("warm decode %v != cold %v", warm.Rec, want.Rec)
	}
	if warm.Stats.Tokens != want.Stats.Tokens {
		t.Fatalf("warm sampled %d tokens, cold %d", warm.Stats.Tokens, want.Stats.Tokens)
	}
	// A full-prompt hit carries the witness model, so the prompt feasibility
	// Check is skipped: the warm pass must issue strictly fewer solver checks.
	if warm.Stats.SolverChecks >= first.Stats.SolverChecks {
		t.Errorf("warm pass used %d solver checks, cold %d — expected fewer",
			warm.Stats.SolverChecks, first.Stats.SolverChecks)
	}
}

// TestPrefixWarmMatchesColdLockStep: a prefix-clustered batch decoded twice
// through the lock-step scheduler. Second-pass outputs must be bit-identical
// to the first pass and to the per-record path, with cache hits recorded.
func TestPrefixWarmMatchesColdLockStep(t *testing.T) {
	e := nnPrefixEngine(t, prefixcache.New(16<<20), "")
	reqs := make([]BatchRequest, 4)
	for i := range reqs {
		// Two prompt clusters: indices {0,2} and {1,3} share a prompt but
		// carry distinct index-derived seeds.
		reqs[i].Prompt = rules.Record{"TotalIngress": {100 + 30*int64(i%2)}, "Congestion": {5}}
	}
	const seed = 21
	first, err := e.DecodeRequests(context.Background(), reqs, 1, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesSolo(t, nnTestEngine(t), reqs, first, seed)

	second, err := e.DecodeRequests(context.Background(), reqs, 1, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := range reqs {
		if second[i].Err != nil {
			t.Fatalf("record %d: %v", i, second[i].Err)
		}
		if !reflect.DeepEqual(second[i].Res.Rec, first[i].Res.Rec) {
			t.Errorf("record %d: warm %v != cold %v", i, second[i].Res.Rec, first[i].Res.Rec)
		}
		if second[i].Res.Stats.Tokens != first[i].Res.Stats.Tokens {
			t.Errorf("record %d: warm sampled %d tokens, cold %d",
				i, second[i].Res.Stats.Tokens, first[i].Res.Stats.Tokens)
		}
		if second[i].Res.Stats.PrefixHitTokens > 0 {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no lock-step lane hit the cache on the second pass")
	}
}

// TestPrefixStaleEpochInvalidation: two engines with different rule sets
// share one cache. Snapshots captured under one rule epoch must never warm
// the other — the mismatched engine decodes fully cold and still correctly.
func TestPrefixStaleEpochInvalidation(t *testing.T) {
	cache := prefixcache.New(16 << 20)
	prompt := rules.Record{"TotalIngress": {120}, "Congestion": {10}}
	const seed = 5

	a := nnPrefixEngine(t, cache, "")
	if _, err := a.Impute(prompt, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Inserts == 0 {
		t.Fatal("engine A captured nothing")
	}

	// Same schema and grammar, different rule set → different fingerprint.
	b := nnPrefixEngine(t, cache, `
const T = 5
rule q1: forall t in 0..T-1: 0 <= I[t] and I[t] <= 60
rule q2: sum(I) == TotalIngress
`)
	res, err := b.Impute(prompt, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrefixHitTokens != 0 {
		t.Fatalf("engine B warm-started %d tokens from another epoch's snapshot", res.Stats.PrefixHitTokens)
	}
	if res.Stats.PrefixCaptures == 0 {
		t.Fatal("engine B captured nothing under its own epoch")
	}

	// B's captures replaced the shared keys under B's epoch, so A must now
	// decode cold too — never warm from B's snapshots.
	resA, err := a.Impute(prompt, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if resA.Stats.PrefixHitTokens != 0 {
		t.Fatalf("engine A warm-started %d tokens from B's snapshot", resA.Stats.PrefixHitTokens)
	}
}

// TestPrefixNoCacheOptOut: a request whose context carries
// DisablePrefixCache neither reads nor writes the cache, and its output is
// unchanged.
func TestPrefixNoCacheOptOut(t *testing.T) {
	e := nnPrefixEngine(t, prefixcache.New(16<<20), "")
	prompt := rules.Record{"TotalIngress": {120}, "Congestion": {10}}
	const seed = 17

	// Warm the cache via the lock-step path.
	warmup := []BatchRequest{{Prompt: prompt}, {Prompt: prompt}}
	if _, err := e.DecodeRequests(context.Background(), warmup, 1, seed, nil); err != nil {
		t.Fatal(err)
	}
	before := e.cfg.PrefixCache.Stats()

	reqs := []BatchRequest{
		{Prompt: prompt, Ctx: DisablePrefixCache(context.Background())},
		{Prompt: prompt},
	}
	out, err := e.DecodeRequests(context.Background(), reqs, 1, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[1].Err != nil {
		t.Fatalf("errs: %v / %v", out[0].Err, out[1].Err)
	}
	if out[0].Res.Stats.PrefixHitTokens != 0 || out[0].Res.Stats.PrefixCaptures != 0 {
		t.Errorf("opted-out request touched the cache: hit %d tokens, %d captures",
			out[0].Res.Stats.PrefixHitTokens, out[0].Res.Stats.PrefixCaptures)
	}
	if out[1].Res.Stats.PrefixHitTokens == 0 {
		t.Error("non-opted-out batch-mate missed the warm cache")
	}
	// The opted-out record and its warm batch-mate decode the same prompt
	// with index-derived seeds; both must match their solo equivalents.
	checkMatchesSolo(t, nnTestEngine(t), reqs, out, seed)
	after := e.cfg.PrefixCache.Stats()
	if after.Misses != before.Misses {
		t.Errorf("opted-out request recorded a lookup: misses %d -> %d", before.Misses, after.Misses)
	}
}

// TestSetPrefixCacheClonePool: a cache attached after clones exist reaches
// pooled clones, so lock-step lanes capture and hit through it.
func TestSetPrefixCacheClonePool(t *testing.T) {
	e := nnTestEngine(t)
	prompt := rules.Record{"TotalIngress": {120}, "Congestion": {10}}
	// Populate the clone pool with cache-less clones.
	reqs := []BatchRequest{{Prompt: prompt}, {Prompt: prompt}}
	if _, err := e.DecodeRequests(context.Background(), reqs, 1, 3, nil); err != nil {
		t.Fatal(err)
	}
	cache := prefixcache.New(16 << 20)
	e.SetPrefixCache(cache)
	if _, err := e.DecodeRequests(context.Background(), reqs, 1, 3, nil); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Inserts == 0 {
		t.Fatal("pooled clones did not pick up the cache")
	}
	out, err := e.DecodeRequests(context.Background(), reqs, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Res.Stats.PrefixHitTokens == 0 && out[1].Res.Stats.PrefixHitTokens == 0 {
		t.Fatal("no hit after cache warmup through SetPrefixCache")
	}
	checkMatchesSolo(t, nnTestEngine(t), reqs, out, 3)
}

// TestPrefixCacheHoldsWholePrompts: three passes of impute traffic over P
// distinct prompts, each prompt twice per batch. The first pass leaves
// exactly one entry per prompt — no snapshot inside a prompt or inside
// sampled values — and later passes capture nothing, evict nothing and
// restore every prompt whole.
func TestPrefixCacheHoldsWholePrompts(t *testing.T) {
	cache := prefixcache.New(16 << 20)
	e := nnPrefixEngine(t, cache, "")
	const P = 5
	reqs := make([]BatchRequest, 2*P)
	for i := range reqs {
		p := rules.Record{"TotalIngress": {100 + 20*int64(i%P)}, "Congestion": {5}}
		if i%P == P-1 {
			p = rules.Record{"TotalIngress": {150}} // a one-slot prompt
		}
		reqs[i].Prompt = p
	}
	for pass := 1; pass <= 3; pass++ {
		out, err := e.DecodeRequests(context.Background(), reqs, 1, 11, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range out {
			if o.Err != nil {
				t.Fatalf("pass %d record %d: %v", pass, i, o.Err)
			}
			if pass == 1 {
				continue
			}
			text, _, _ := e.promptFor(reqs[i].Prompt)
			want := len(text) + 1 // BOS
			if got := o.Res.Stats.PrefixHitTokens; got != want {
				t.Errorf("pass %d record %d: restored %d tokens, want the whole prompt's %d", pass, i, got, want)
			}
			if o.Res.Stats.PrefixCaptures != 0 {
				t.Errorf("pass %d record %d: captured %d snapshots of a cached prompt", pass, i, o.Res.Stats.PrefixCaptures)
			}
		}
		if st := cache.Stats(); st.Entries != P || st.Evictions != 0 {
			t.Fatalf("after pass %d: %d entries, %d evictions; want %d entries, 0 evictions", pass, st.Entries, st.Evictions, P)
		}
	}
}

// TestPrefixCacheSkipsPromptlessLanes: an unconditional generate (empty
// prompt) has nothing to restore and a whole-record impute nothing to
// decode, so neither looks the cache up nor captures into it.
func TestPrefixCacheSkipsPromptlessLanes(t *testing.T) {
	cache := prefixcache.New(16 << 20)
	e := nnPrefixEngine(t, cache, "")
	whole := rules.Record{"TotalIngress": {50}, "Congestion": {5}, "I": {30, 5, 5, 5, 5}}
	reqs := []BatchRequest{{}, {}, {Prompt: whole}}
	for pass := 0; pass < 2; pass++ {
		out, err := e.DecodeRequests(context.Background(), reqs, 1, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range out {
			if o.Err != nil {
				t.Fatalf("record %d: %v", i, o.Err)
			}
			if o.Res.Stats.PrefixHitTokens != 0 || o.Res.Stats.PrefixCaptures != 0 {
				t.Errorf("record %d: hit %d tokens, %d captures", i, o.Res.Stats.PrefixHitTokens, o.Res.Stats.PrefixCaptures)
			}
		}
	}
	if st := cache.Stats(); st != (prefixcache.Stats{}) {
		t.Fatalf("promptless lanes touched the cache: %+v", st)
	}
}
