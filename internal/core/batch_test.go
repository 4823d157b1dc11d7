package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/rules"
	"repro/internal/vocab"
)

// formatRec renders a record deterministically for byte-level comparison.
func formatRec(t *testing.T, e *Engine, rec rules.Record) string {
	t.Helper()
	var b strings.Builder
	for _, s := range e.Slots() {
		vs, ok := rec[s.Field]
		if !ok || s.Index >= len(vs) {
			t.Fatalf("record missing %s[%d]", s.Field, s.Index)
		}
		fmt.Fprintf(&b, "%d%c", vs[s.Index], s.Sep)
	}
	return b.String()
}

func testPrompts(n int) []rules.Record {
	rng := rand.New(rand.NewSource(7))
	prompts := make([]rules.Record, n)
	for i := range prompts {
		total := rng.Int63n(200)
		cong := int64(0)
		// Keep Congestion>0 prompts feasible under r3 (max(I) >= 30
		// requires total >= 30).
		if total >= 30 && rng.Intn(2) == 0 {
			cong = rng.Int63n(50) + 1
		}
		prompts[i] = rules.Record{
			"TotalIngress": {total},
			"Congestion":   {cong},
		}
	}
	return prompts
}

// TestDecodeBatchDeterministic is the PR's headline contract: the same seed
// must produce byte-identical records for any worker count.
func TestDecodeBatchDeterministic(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	prompts := testPrompts(12)

	var want []string
	for _, workers := range []int{1, 4, 8} {
		out := e.DecodeBatch(prompts, workers, 42, MethodGuided)
		if len(out) != len(prompts) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), len(prompts))
		}
		got := make([]string, len(out))
		for i, b := range out {
			if b.Err != nil {
				t.Fatalf("workers=%d record %d: %v", workers, i, b.Err)
			}
			if b.Index != i {
				t.Fatalf("workers=%d: result %d has index %d", workers, i, b.Index)
			}
			got[i] = formatRec(t, e, b.Res.Rec)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d record %d differs:\n got %q\nwant %q", workers, i, got[i], want[i])
			}
		}
	}
}

// TestDecodeBatchGenerate covers the nil-prompt (unconditional synthesis)
// path and rule compliance of its output.
func TestDecodeBatchGenerate(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	out := e.DecodeBatch(make([]rules.Record, 6), 3, 5, MethodGuided)
	for i, b := range out {
		if b.Err != nil {
			t.Fatalf("record %d: %v", i, b.Err)
		}
		viol, err := e.cfg.Rules.Violations(b.Res.Rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(viol) > 0 {
			t.Errorf("record %d violates %v", i, viol)
		}
	}
}

// TestDecodeBatchMethod routes a baseline through DecodeBatch by its Method:
// every record equals the same baseline decoded alone with the record's
// seed, and the format-aware model parses at least once.
func TestDecodeBatchMethod(t *testing.T) {
	schema := testSchema(t)
	slots := testGrammar(t, schema)
	tok := vocab.Telemetry()
	e := testEngine(t, formatAwareLM{tok: tok, slots: slots}, LeJIT)
	prompts := testPrompts(4)
	out := e.DecodeBatch(prompts, 2, 9, MethodFree)
	if len(out) != len(prompts) {
		t.Fatalf("got %d results, want %d", len(out), len(prompts))
	}
	n := 0
	for i, b := range out {
		res, err := e.Decode(context.Background(), MethodFree, prompts[i], rand.New(rand.NewSource(MixSeed(9, i))))
		if !reflect.DeepEqual(b.Res, res) || fmt.Sprint(b.Err) != fmt.Sprint(err) {
			t.Errorf("record %d: batched %+v (%v), alone %+v (%v)", i, b.Res, b.Err, res, err)
		}
		if b.Err == nil {
			n++
		}
	}
	if n == 0 {
		t.Fatal("vanilla batch produced no records at all")
	}
}

// TestDecodeBatchRace hammers the pool so `go test -race` can prove engine
// isolation: shared LM weights, the shared program and the compiled rules a
// clone's solver forks are read-only; everything mutable is per-clone.
func TestDecodeBatchRace(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	prompts := testPrompts(24)
	for round := 0; round < 3; round++ {
		e.DecodeBatch(prompts, 8, int64(round), MethodGuided)
	}
}

// TestCloneSharesCompiledRules verifies the satellite fix: cloning must not
// recompile rules or burn solver checks on a satisfiability pre-check.
func TestCloneSharesCompiledRules(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	c, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.SolverStats().Checks; got != 0 {
		t.Errorf("clone performed %d solver checks at construction, want 0", got)
	}
	if c.program != e.program || c.solver.Epoch() != e.solver.Epoch() {
		t.Errorf("clone shares program %v (want its parent's) and solver state %v (want the forked rules)", c.program == e.program, c.solver.Epoch() == e.solver.Epoch())
	}
	// The clone must still enforce: decode and check compliance.
	res, err := c.Impute(rules.Record{"TotalIngress": {120}, "Congestion": {10}}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	viol, err := c.cfg.Rules.Violations(res.Rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) > 0 {
		t.Errorf("clone output violates %v", viol)
	}
}

// TestMixSeed pins the splitmix64 seed derivation: distinct indices under
// one batch seed never collide, and — the failure mode of the old affine
// seed+i*7919 scheme — two nearby batch seeds never alias each other's
// per-record streams (seed 0 record 1 used to equal seed 7919 record 0).
func TestMixSeed(t *testing.T) {
	seen := map[int64][2]int64{}
	for _, seed := range []int64{0, 1, 7919, -7919, 42, 1 << 40} {
		for i := 0; i < 64; i++ {
			s := MixSeed(seed, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("MixSeed(%d,%d) == MixSeed(%d,%d) == %d", seed, i, prev[0], prev[1], s)
			}
			seen[s] = [2]int64{seed, int64(i)}
		}
	}
	if MixSeed(3, 5) != MixSeed(3, 5) {
		t.Error("MixSeed not deterministic")
	}
}

// TestDecodeRequestsPerRecordCtx: a request whose context is already done
// must not decode at all, and must not disturb its batch-mates.
func TestDecodeRequestsPerRecordCtx(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	prompts := testPrompts(3)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []BatchRequest{
		{Prompt: prompts[0]},
		{Prompt: prompts[1], Ctx: dead},
		{Prompt: prompts[2]},
	}
	out, err := e.DecodeRequests(context.Background(), reqs, 2, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out[1].Err, context.Canceled) {
		t.Errorf("cancelled record err = %v, want context.Canceled", out[1].Err)
	}
	if out[1].Res.Stats.Tokens != 0 {
		t.Errorf("cancelled record emitted %d tokens, want 0", out[1].Res.Stats.Tokens)
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil {
			t.Errorf("record %d: %v", i, out[i].Err)
		}
	}
}

// TestDecodeRequestsSeedOverride: an explicit per-request seed must make the
// output independent of the record's position in the batch (the serving
// determinism contract, DESIGN.md §8).
func TestDecodeRequestsSeedOverride(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	prompts := testPrompts(4)
	seed := int64(1234)
	decodeAt := func(pos, n int) string {
		reqs := make([]BatchRequest, n)
		for i := range reqs {
			reqs[i].Prompt = prompts[i]
		}
		reqs[pos].Prompt = prompts[3]
		reqs[pos].Seed = &seed
		out, err := e.DecodeRequests(context.Background(), reqs, 1, 99, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out[pos].Err != nil {
			t.Fatal(out[pos].Err)
		}
		return formatRec(t, e, out[pos].Res.Rec)
	}
	first := decodeAt(0, 1)
	if got := decodeAt(2, 3); got != first {
		t.Errorf("seeded record differs by batch position:\n got %q\nwant %q", got, first)
	}
}

// TestImputeCtxCancelMidDecode: cancelling during the decode stops it at a
// token boundary with the context's error.
func TestImputeCtxCancelMidDecode(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	_, err := e.ImputeCtx(ctx, rules.Record{"TotalIngress": {120}, "Congestion": {10}}, rand.New(rand.NewSource(1)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// cancelAtLM counts the tokens fed to any of its sessions and cancels a
// context once at tokens have gone in.
type cancelAtLM struct {
	LM
	fed    *int
	at     int
	cancel context.CancelFunc
}

func (l cancelAtLM) NewSession() Session { return cancelAtSession{l.LM.NewSession(), l} }

type cancelAtSession struct {
	Session
	lm cancelAtLM
}

func (s cancelAtSession) Append(tok int) error {
	if *s.lm.fed++; *s.lm.fed == s.lm.at {
		s.lm.cancel()
	}
	return s.Session.Append(tok)
}

// TestRejectionCancelMidDecode: a rejection lane whose every sample violates
// would restart for 500 attempts; cancelled mid-way through its third
// attempt, it returns the context's error before the LM takes one more
// token.
func TestRejectionCancelMidDecode(t *testing.T) {
	const at = 50 // an attempt feeds BOS, the 6-character prompt and 14 sampled characters
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fed := 0
	lm := cancelAtLM{LM: scriptedLM{tok: vocab.Telemetry(), text: "100,8|20,15,25,70,8\n"}, fed: &fed, at: at, cancel: cancel}
	e := testEngine(t, lm, LeJIT)
	res, err := e.Decode(ctx, MethodRejection, rules.Record{"TotalIngress": {100}, "Congestion": {8}}, rand.New(rand.NewSource(1)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fed != at {
		t.Errorf("the LM took %d tokens, %d after the cancelling one", fed, fed-at)
	}
	if res.Stats.Attempts != 3 {
		t.Errorf("cancelled in attempt %d, want 3", res.Stats.Attempts)
	}
}

// TestWithLookaheadIsIdentity pins the benchmark seam left by the removal of
// speculative decoding (DESIGN.md §13): a decode under WithLookahead(ctx, 8)
// returns the same record and the same Stats, field for field, as one
// without it, and SpecAcceptedTokens stays 0 — every lane decodes on the one
// exact per-token path.
func TestWithLookaheadIsIdentity(t *testing.T) {
	e := nnTestEngine(t)
	for _, p := range []rules.Record{{"TotalIngress": {120}, "Congestion": {10}}, nil} {
		for _, seed := range []int64{1, 7, 42} {
			decode := func(ctx context.Context) (Result, error) {
				eng, err := e.Clone()
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				if p == nil {
					return eng.GenerateCtx(ctx, rng)
				}
				return eng.ImputeCtx(ctx, p, rng)
			}
			want, werr := decode(context.Background())
			got, gerr := decode(WithLookahead(context.Background(), 8))
			if werr != nil || gerr != nil {
				t.Fatalf("prompt %v seed %d: errors %v / %v", p, seed, werr, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("prompt %v seed %d: under WithLookahead %+v, without %+v", p, seed, got, want)
			}
			if got.Stats.SpecAcceptedTokens != 0 {
				t.Errorf("prompt %v seed %d: SpecAcceptedTokens = %d, want 0", p, seed, got.Stats.SpecAcceptedTokens)
			}
		}
	}
}
