package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// --- NN-backed fixtures -----------------------------------------------------
//
// The mock LMs of the other test files don't implement BatchLM, so the decode
// loop steps them through its Session adapter. These tests build a real
// (tiny, untrained) transformer: WrapNN's adapter implements BatchLM, so the
// loop advances its lanes with one batched forward pass per step.

var (
	nnModelOnce sync.Once
	nnModelVal  *nn.Model
	nnModelErr  error
)

func nnTestModel(tb testing.TB) *nn.Model {
	tb.Helper()
	nnModelOnce.Do(func() {
		nnModelVal, nnModelErr = nn.New(nn.Config{
			Vocab: vocab.Telemetry().Size(), Ctx: 48, Dim: 16, Heads: 2, Layers: 2,
		}, 7)
	})
	if nnModelErr != nil {
		tb.Fatal(nnModelErr)
	}
	return nnModelVal
}

func nnTestEngine(tb testing.TB) *Engine {
	tb.Helper()
	return nnEngineOver(tb, nnTestModel(tb))
}

// nnEngineOver builds the LeJIT telemetry engine of nnTestEngine over m.
func nnEngineOver(tb testing.TB, m *nn.Model) *Engine {
	tb.Helper()
	return nnEngineWith(tb, m, testRules)
}

// nnEngineWith is nnEngineOver under the rule text ruleText.
func nnEngineWith(tb testing.TB, m *nn.Model, ruleText string) *Engine {
	tb.Helper()
	schema := rules.MustSchema(
		rules.Field{Name: "TotalIngress", Kind: rules.Scalar, Lo: 0, Hi: 300},
		rules.Field{Name: "Congestion", Kind: rules.Scalar, Lo: 0, Hi: 100},
		rules.Field{Name: "I", Kind: rules.Vector, Len: 5, Lo: 0, Hi: 60},
	)
	rs, err := rules.ParseRuleSet(ruleText, schema)
	if err != nil {
		tb.Fatal(err)
	}
	slots, err := TelemetryGrammar(schema, []string{"TotalIngress", "Congestion"}, "I")
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEngine(Config{
		LM: WrapNN(m), Tok: vocab.Telemetry(), Schema: schema,
		Rules: rs, Slots: slots, Mode: LeJIT,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// soloDecode runs reqs[i] alone through its method's direct entry point —
// ImputeCtx/GenerateCtx, Vanilla, Rejection or PostHoc, each a batch of one
// lane — on a fresh clone, so the comparison engine carries no state from
// other records.
func soloDecode(tb testing.TB, e *Engine, req BatchRequest, seed int64, i int) (Result, error) {
	tb.Helper()
	eng, err := e.Clone()
	if err != nil {
		tb.Fatal(err)
	}
	s := MixSeed(seed, i)
	if req.Seed != nil {
		s = *req.Seed
	}
	rctx := req.Ctx
	if rctx == nil {
		rctx = context.Background()
	}
	rng := rand.New(rand.NewSource(s))
	switch {
	case req.Method == MethodFree:
		return eng.Vanilla(req.Prompt, rng)
	case req.Method == MethodRejection:
		return eng.Rejection(req.Prompt, rng)
	case req.Method == MethodPostHoc:
		return eng.PostHoc(req.Prompt, rng)
	case req.Prompt == nil:
		return eng.GenerateCtx(rctx, rng)
	}
	return eng.ImputeCtx(rctx, req.Prompt, rng)
}

// checkMatchesSolo asserts every lock-step outcome equals the per-record one:
// same record, same sampled-token count, same error-ness.
func checkMatchesSolo(t *testing.T, e *Engine, reqs []BatchRequest, out []BatchResult, seed int64) {
	t.Helper()
	for i := range reqs {
		res, err := soloDecode(t, e, reqs[i], seed, i)
		if (err != nil) != (out[i].Err != nil) {
			t.Errorf("record %d: lock-step err %v, solo err %v", i, out[i].Err, err)
			continue
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(out[i].Res.Rec, res.Rec) {
			t.Errorf("record %d: lock-step %v != solo %v", i, out[i].Res.Rec, res.Rec)
		}
		if out[i].Res.Stats.Tokens != res.Stats.Tokens {
			t.Errorf("record %d: lock-step sampled %d tokens, solo %d", i, out[i].Res.Stats.Tokens, res.Stats.Tokens)
		}
	}
}

// TestLockStepMatchesSolo: batches of every small size and mixed prompt
// shapes (imputation, generation, per-request seeds) decode to records
// byte-identical to the same requests decoded alone. This is the golden
// equivalence the GEMM decode path promises: batch composition never changes
// any record.
func TestLockStepMatchesSolo(t *testing.T) {
	e := nnTestEngine(t)
	override := int64(12345)
	for _, n := range []int{2, 3, 5} {
		reqs := make([]BatchRequest, n)
		for i := range reqs {
			switch i % 3 {
			case 0:
				reqs[i].Prompt = rules.Record{"TotalIngress": {120}, "Congestion": {10}}
			case 1:
				reqs[i].Prompt = rules.Record{"TotalIngress": {60 + int64(i)}, "Congestion": {0}}
			default:
				// Unconditional generation shares the batch with imputations.
			}
			if i == n-1 {
				reqs[i].Seed = &override
			}
		}
		out, err := e.DecodeRequests(context.Background(), reqs, 1, 42, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesSolo(t, e, reqs, out, 42)
	}
}

// TestLockStepGroupingInvariance: the same requests decoded with different
// worker counts (different group splits) and different batch-mates produce
// identical records — output is a function of (request, seed, index) only.
func TestLockStepGroupingInvariance(t *testing.T) {
	e := nnTestEngine(t)
	reqs := make([]BatchRequest, 6)
	for i := range reqs {
		reqs[i].Prompt = rules.Record{"TotalIngress": {100 + 20*int64(i)}, "Congestion": {5}}
	}
	base, err := e.DecodeRequests(context.Background(), reqs, 1, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 6} {
		out, err := e.DecodeRequests(context.Background(), reqs, workers, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			if (out[i].Err != nil) != (base[i].Err != nil) {
				t.Fatalf("workers=%d record %d: err %v vs base %v", workers, i, out[i].Err, base[i].Err)
			}
			if !reflect.DeepEqual(out[i].Res.Rec, base[i].Res.Rec) {
				t.Errorf("workers=%d record %d: %v != %v", workers, i, out[i].Res.Rec, base[i].Res.Rec)
			}
		}
	}
	// Pinning the seed pins the record regardless of batch-mates: the same
	// request decoded in a different batch keeps its output.
	s := int64(7)
	lone := []BatchRequest{{Prompt: reqs[2].Prompt, Seed: &[]int64{MixSeed(s, 2)}[0]}, {Prompt: rules.Record{"TotalIngress": {33}, "Congestion": {1}}}}
	out, err := e.DecodeRequests(context.Background(), lone, 1, 999, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out[0].Res.Rec, base[2].Res.Rec) {
		t.Errorf("seed-pinned record changed with batch composition: %v != %v", out[0].Res.Rec, base[2].Res.Rec)
	}
}

// TestLockStepMixedMethods: lanes of every method share one lock-step group
// (on the transformer, so every free-sampling restart empties a lane of the
// shared BatchSession) and a pre-cancelled request is not decoded at all —
// one call, each outcome at its own index and equal to its solo decode.
func TestLockStepMixedMethods(t *testing.T) {
	e := nnTestEngine(t)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []BatchRequest{
		{Prompt: rules.Record{"TotalIngress": {75}, "Congestion": {3}}, Ctx: dead},
		{Prompt: rules.Record{"TotalIngress": {120}, "Congestion": {10}}},
		{Prompt: rules.Record{"TotalIngress": {90}, "Congestion": {0}}, Method: MethodRejection},
		{Prompt: rules.Record{"TotalIngress": {150}, "Congestion": {20}}, Method: MethodFree},
		{Method: MethodPostHoc},
		{},
	}
	out, err := e.DecodeRequests(context.Background(), reqs, 1, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != context.Canceled {
		t.Errorf("pre-cancelled request err %v, want context.Canceled", out[0].Err)
	}
	checkMatchesSolo(t, e, reqs, out, 11)
}

// TestLockStepLaneFailure: a lane whose per-request context is already dead
// must not decode, and a lane cancelled mid-flight must not disturb its
// batch-mates' outputs.
func TestLockStepLaneFailure(t *testing.T) {
	e := nnTestEngine(t)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []BatchRequest{
		{Prompt: rules.Record{"TotalIngress": {120}, "Congestion": {10}}},
		{Prompt: rules.Record{"TotalIngress": {90}, "Congestion": {0}}, Ctx: dead},
		{Prompt: rules.Record{"TotalIngress": {150}, "Congestion": {20}}},
	}
	out, err := e.DecodeRequests(context.Background(), reqs, 1, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Err != context.Canceled {
		t.Errorf("dead-ctx lane err %v, want context.Canceled", out[1].Err)
	}
	for _, i := range []int{0, 2} {
		res, err := soloDecode(t, e, reqs[i], 5, i)
		if err != nil || out[i].Err != nil {
			t.Fatalf("record %d: solo err %v, batched err %v", i, err, out[i].Err)
		}
		if !reflect.DeepEqual(out[i].Res.Rec, res.Rec) {
			t.Errorf("record %d changed by a failing batch-mate: %v != %v", i, out[i].Res.Rec, res.Rec)
		}
	}
}

// TestLockStepConcurrentGroups drives several lock-step groups, each mixing
// guided and free-sampling lanes, at once, twice, so the second batch's
// groups take the first one's pooled sessions and clones concurrently; its
// real assertions run under the race detector (make verify runs this
// package with -race).
func TestLockStepConcurrentGroups(t *testing.T) {
	e := nnTestEngine(t)
	reqs := make([]BatchRequest, 12)
	for i := range reqs {
		if i%4 == 3 {
			reqs[i].Method = Method(1 + i/4) // free, rejection, post-hoc
		}
		reqs[i].Prompt = rules.Record{"TotalIngress": {60 + 10*int64(i)}, "Congestion": {int64(i % 3)}}
	}
	var first []BatchResult
	for round := 0; round < 2; round++ {
		out, err := e.DecodeRequests(context.Background(), reqs, 4, 13, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range out {
			if r.Err != nil && reqs[i].Method == MethodGuided {
				t.Errorf("round %d record %d: %v", round, i, r.Err)
			} else if round == 1 && (!reflect.DeepEqual(r.Res, first[i].Res) || fmt.Sprint(r.Err) != fmt.Sprint(first[i].Err)) {
				t.Errorf("record %d on pooled sessions and clones: %+v (%v), first round %+v (%v)", i, r.Res, r.Err, first[i].Res, first[i].Err)
			}
		}
		first = out
	}
}

// FuzzLockStepMatchesSolo randomizes batch composition and seeds and asserts
// every record's lock-step outcome (including infeasible-prompt errors)
// matches its solo decode.
func FuzzLockStepMatchesSolo(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(42), uint8(5), uint8(0xA5))
	f.Add(int64(-9), uint8(3), uint8(0xFF))
	f.Fuzz(func(t *testing.T, seed int64, n, mix uint8) {
		e := nnTestEngine(t)
		lanes := int(n)%6 + 2
		reqs := make([]BatchRequest, lanes)
		for i := range reqs {
			switch (int(mix) >> (i % 8)) & 1 {
			case 0:
				reqs[i].Prompt = rules.Record{
					"TotalIngress": {int64(uint(seed)+uint(i)*37) % 301},
					"Congestion":   {int64(uint(mix)+uint(i)) % 101},
				}
			default:
				reqs[i].Prompt = nil
			}
		}
		out, err := e.DecodeRequests(context.Background(), reqs, 1+int(mix)%3, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesSolo(t, e, reqs, out, seed)
	})
}

// TestLockStepClonePool: pooled engine clones are reused across batches and
// leave no residue — back-to-back batches on one engine decode identically.
func TestLockStepClonePool(t *testing.T) {
	e := nnTestEngine(t)
	reqs := []BatchRequest{
		{Prompt: rules.Record{"TotalIngress": {120}, "Congestion": {10}}},
		{Prompt: rules.Record{"TotalIngress": {60}, "Congestion": {0}}},
	}
	first, err := e.DecodeRequests(context.Background(), reqs, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.poolMu.Lock()
	pooled := len(e.pool)
	e.poolMu.Unlock()
	if pooled == 0 {
		t.Fatal("no engine clones returned to the pool")
	}
	second, err := e.DecodeRequests(context.Background(), reqs, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if fmt.Sprint(first[i].Res.Rec) != fmt.Sprint(second[i].Res.Rec) {
			t.Errorf("record %d drifted across pooled batches: %v != %v", i, first[i].Res.Rec, second[i].Res.Rec)
		}
	}
}

// TestDecodeRequestsMatchesImpute pins the one driver: whatever the LM kind
// (a BatchLM transformer, a plain-Session LM behind the adapter — the shape
// of pack.UniformLM, which this package cannot import — or one whose last
// lane's session errors mid-decode), batch size, or goroutine budget, every
// DecodeRequests outcome equals ImputeCtx on a fresh clone with the same
// seed. Under the adapter the failing lane retires alone: its batch-mates,
// fed before it in the same step, must not be fed twice by the retry. A
// prompt the rules make infeasible reports ErrInfeasible at its own index,
// and an empty batch returns no results.
func TestDecodeRequestsMatchesImpute(t *testing.T) {
	tok := vocab.Telemetry()
	if out, err := nnTestEngine(t).DecodeRequests(context.Background(), nil, 3, 1, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %d results, err %v", len(out), err)
	}
	for _, n := range []int{1, 2, 7} {
		reqs := faultReqs(n)
		if n > 1 {
			reqs[0].Prompt = rules.Record{"TotalIngress": {0}, "Congestion": {99}} // r3 needs max(I) >= 30
		}
		uniform := testEngine(t, uniformLM{vocab: tok.Size()}, LeJIT)
		text, _, err := uniform.promptFor(reqs[n-1].Prompt)
		if err != nil {
			t.Fatal(err)
		}
		bad, err := tok.Encode(text)
		if err != nil {
			t.Fatal(err)
		}
		engines := map[string]*Engine{
			"nn":      nnTestEngine(t),
			"uniform": uniform,
			"failing": testEngine(t, failingLM{
				vocab: tok.Size(), inner: scriptedLM{tok: tok, text: "31415926535897932384626433832795028841971"},
				only: append([]int{vocab.BOS}, bad...), after: len(bad) + 4,
			}, LeJIT),
		}
		for name, e := range engines {
			for _, workers := range []int{1, 3} {
				out, err := e.DecodeRequests(context.Background(), reqs, workers, 42, nil)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("%s/n=%d/workers=%d", name, n, workers), func(t *testing.T) {
					checkMatchesSolo(t, e, reqs, out, 42)
					for i := range out {
						switch {
						case name == "failing" && i == n-1:
							if !errors.Is(out[i].Err, errInjected) {
								t.Errorf("failing lane err %v, want the injected failure", out[i].Err)
							}
						case n > 1 && i == 0:
							var inf ErrInfeasible
							if !errors.As(out[i].Err, &inf) {
								t.Errorf("infeasible prompt err %v, want ErrInfeasible", out[i].Err)
							}
						case out[i].Err != nil:
							t.Errorf("record %d: %v", i, out[i].Err)
						}
					}
				})
			}
		}
	}
}

// snappedModel returns a private model whose weight tensors each sit on a
// 256-point affine grid (lo + scale·q, q in [0,255]): the weights an int8
// store holds. The snap goes through Save/Load, so it needs no access to the
// model's internals.
func snappedModel(tb testing.TB) *nn.Model {
	tb.Helper()
	m, err := nn.New(nn.Config{
		Vocab: vocab.Telemetry().Size(), Ctx: 48, Dim: 48, Heads: 4, Layers: 2,
	}, 7)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	var g struct {
		Cfg     nn.Config
		Weights [][]float32
		Step    int
	}
	if err := gob.NewDecoder(&buf).Decode(&g); err != nil {
		tb.Fatal(err)
	}
	moved := 0
	for _, w := range g.Weights {
		lo, hi := w[0], w[0]
		for _, v := range w {
			lo, hi = min(lo, v), max(hi, v)
		}
		s := (hi - lo) / 255
		if s == 0 {
			continue // constant tensor (LayerNorm gains and biases)
		}
		for i, v := range w {
			w[i] = lo + s*float32(math.Round(float64((v-lo)/s)))
			if w[i] != v {
				moved++
			}
		}
	}
	if moved == 0 {
		tb.Fatal("snapping moved no weight")
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		tb.Fatal(err)
	}
	sm, err := nn.Load(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return sm
}

// TestLockStepShardedQuantizedMatchesSolo is the end-to-end golden check on
// int8-grid weights: a lock-step batch sharded across three lane groups that
// share one snapped model yields the same records as per-record solo decodes
// of the same engine. The int8 weight store that once served such weights is
// gone (DESIGN.md §15), so they take the one float32 path like any others.
func TestLockStepShardedQuantizedMatchesSolo(t *testing.T) {
	e := nnEngineOver(t, snappedModel(t))
	reqs := []BatchRequest{
		{Prompt: rules.Record{"TotalIngress": {120}, "Congestion": {10}}},
		{Prompt: rules.Record{"TotalIngress": {60}, "Congestion": {0}}},
		{},
		{Prompt: rules.Record{"TotalIngress": {200}, "Congestion": {55}}},
	}
	out, err := e.DecodeRequests(context.Background(), reqs, 3, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesSolo(t, e, reqs, out, 42)
	for i := range out {
		if out[i].Err != nil {
			t.Errorf("record %d: %v", i, out[i].Err)
		}
	}
}

// TestPoolBoundedByUse: the free lists keep everything released to them, and
// use alone bounds them. After a run of DecodeRequests calls of 1 to 32 lanes,
// the clone pool holds no more clones than the largest call had lanes, and
// the session list no more than workers sessions per power-of-two size (six
// sizes cover 1..32 lanes).
func TestPoolBoundedByUse(t *testing.T) {
	prompts := []rules.Record{
		{"TotalIngress": {120}, "Congestion": {10}},
		{"TotalIngress": {60}, "Congestion": {0}},
		nil,
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := nnTestEngine(t)
			rng := rand.New(rand.NewSource(int64(workers)))
			largest := 0
			for call := 0; call < 50; call++ {
				n := 1 + rng.Intn(32)
				largest = max(largest, n)
				reqs := make([]BatchRequest, n)
				for i := range reqs {
					reqs[i].Prompt = prompts[(call+i)%len(prompts)]
				}
				out, _ := e.DecodeRequests(context.Background(), reqs, workers, int64(call), nil)
				for i := range out {
					if out[i].Err != nil {
						t.Fatalf("call %d record %d: %v", call, i, out[i].Err)
					}
				}
			}
			e.poolMu.Lock()
			clones, sessions := len(e.pool), len(e.sessions)
			e.poolMu.Unlock()
			if clones > largest {
				t.Errorf("pool holds %d clones, more than the largest call's %d lanes", clones, largest)
			}
			if sessions > workers*6 {
				t.Errorf("free list holds %d sessions, more than workers×6 = %d", sessions, workers*6)
			}
			t.Logf("largest call %d lanes: %d clones, %d sessions pooled", largest, clones, sessions)
		})
	}
}
