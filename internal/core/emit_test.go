package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/prefixcache"
	"repro/internal/rules"
)

// renderLine builds the full grammar-order text of a record — the exact
// string the serving layer returns as "line". Streamed chunks must
// concatenate to it byte for byte.
func renderLine(e *Engine, rec rules.Record) string {
	var b strings.Builder
	for _, sl := range e.Slots() {
		fmt.Fprintf(&b, "%d%c", rec[sl.Field][sl.Index], sl.Sep)
	}
	return b.String()
}

// chunkCollector gathers emitted slots and checks ordering invariants.
type chunkCollector struct {
	chunks []string
	slots  []int
}

func (c *chunkCollector) fn(slot int, text string) {
	c.chunks = append(c.chunks, text)
	c.slots = append(c.slots, slot)
}

// checkChunks asserts the collector saw every slot exactly once, in order,
// and that the concatenation equals the record's rendered line.
func checkChunks(t *testing.T, label string, e *Engine, rec rules.Record, c *chunkCollector) {
	t.Helper()
	if len(c.slots) != len(e.Slots()) {
		t.Fatalf("%s: %d chunks for %d slots", label, len(c.slots), len(e.Slots()))
	}
	for i, s := range c.slots {
		if s != i {
			t.Fatalf("%s: chunk %d carries slot %d (out of order or duplicated)", label, i, s)
		}
	}
	got := strings.Join(c.chunks, "")
	want := renderLine(e, rec)
	if got != want {
		t.Errorf("%s: streamed %q != line %q", label, got, want)
	}
}

// TestEmitMatchesLineSolo: on the per-record path, the emit hook streams one
// chunk per slot whose concatenation is bit-identical to the rendered line,
// and installing the hook does not perturb the decode.
func TestEmitMatchesLineSolo(t *testing.T) {
	e := nnTestEngine(t)
	prompts := []rules.Record{
		{"TotalIngress": {120}, "Congestion": {10}},
		{"TotalIngress": {60}, "Congestion": {0}},
		nil, // unconditional generation streams every slot
	}
	for pi, known := range prompts {
		for seed := int64(0); seed < 3; seed++ {
			label := fmt.Sprintf("prompt %d seed %d", pi, seed)
			plain, err := soloDecode(t, e, BatchRequest{Prompt: known}, seed, 0)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var c chunkCollector
			eng, err := e.Clone()
			if err != nil {
				t.Fatal(err)
			}
			ctx := WithEmit(context.Background(), c.fn)
			rng := rand.New(rand.NewSource(MixSeed(seed, 0)))
			var res Result
			if known == nil {
				res, err = eng.GenerateCtx(ctx, rng)
			} else {
				res, err = eng.ImputeCtx(ctx, known, rng)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(res.Rec, plain.Rec) {
				t.Errorf("%s: emit hook changed the record: %v != %v", label, res.Rec, plain.Rec)
			}
			checkChunks(t, label, e, res.Rec, &c)
		}
	}
}

// TestEmitMatchesLineLockStep: lanes decoded lock-step through a shared
// BatchSession stream their slots through per-request contexts, and each
// lane's chunks concatenate to exactly its own line — no cross-lane mixing.
func TestEmitMatchesLineLockStep(t *testing.T) {
	e := nnTestEngine(t)
	const n = 5
	cols := make([]chunkCollector, n)
	reqs := make([]BatchRequest, n)
	for i := range reqs {
		if i%3 != 2 {
			reqs[i].Prompt = rules.Record{"TotalIngress": {80 + 15*int64(i)}, "Congestion": {int64(i % 2 * 10)}}
		}
		reqs[i].Ctx = WithEmit(context.Background(), cols[i].fn)
	}
	out, err := e.DecodeRequests(context.Background(), reqs, 1, 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("lane %d: %v", i, out[i].Err)
		}
		checkChunks(t, fmt.Sprintf("lane %d", i), e, out[i].Res.Rec, &cols[i])
	}
	// The emit hook must not perturb lock-step output either.
	bare := make([]BatchRequest, n)
	for i := range bare {
		bare[i].Prompt = reqs[i].Prompt
	}
	plain, err := e.DecodeRequests(context.Background(), bare, 1, 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if !reflect.DeepEqual(plain[i].Res.Rec, out[i].Res.Rec) {
			t.Errorf("lane %d: emit hook changed the record: %v != %v", i, out[i].Res.Rec, plain[i].Res.Rec)
		}
	}
}

// TestEmitSpeculativeNeverRetracts: under speculative decoding, chunks are
// withheld while a window is open and flushed at commit, so even runs that
// roll back stream exactly the final line — never a retracted prefix. The
// fixture engine forces rollbacks (including across slot boundaries); the
// scanned seed range must actually exhibit one for the test to mean anything.
func TestEmitSpeculativeNeverRetracts(t *testing.T) {
	e := rollbackTestEngine(t, nil, false)
	rolledBack := false
	for seed := int64(0); seed < 10; seed++ {
		label := fmt.Sprintf("seed %d", seed)
		var c chunkCollector
		eng, err := e.Clone()
		if err != nil {
			t.Fatal(err)
		}
		ctx := WithEmit(WithLookahead(context.Background(), 8), c.fn)
		res, err := eng.GenerateCtx(ctx, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Stats.SpecRollbacks > 0 {
			rolledBack = true
		}
		exact, err := specLookahead(t, e, nil, seed, 0)
		if err != nil {
			t.Fatalf("%s: exact path: %v", label, err)
		}
		if !reflect.DeepEqual(res.Rec, exact.Rec) {
			t.Errorf("%s: speculative+emit record %v != exact %v", label, res.Rec, exact.Rec)
		}
		checkChunks(t, label, e, res.Rec, &c)
	}
	if !rolledBack {
		t.Fatal("no seed triggered a rollback; the retraction edge was not exercised")
	}
}

// TestEmitWarmPromptPrecedesFirstStep: a lane restored from a full-prompt
// cache hit streams its prompt slots when it starts, before the first guided
// step (the first slot's base build and probes), as a cold lane streams each
// prompt slot while the prompt is still being fed.
func TestEmitWarmPromptPrecedesFirstStep(t *testing.T) {
	e := nnPrefixEngine(t, prefixcache.New(16<<20), "")
	prompt := rules.Record{"TotalIngress": {120}, "Congestion": {10}}
	for pass, wantHit := range []bool{false, true} {
		var events []string // "emit" per streamed slot, "step" per guided step
		eng, err := e.Clone()
		if err != nil {
			t.Fatal(err)
		}
		eng.cfg.TraceHook = func(TraceStep) { events = append(events, "step") }
		ctx := WithEmit(context.Background(), func(int, string) { events = append(events, "emit") })
		res, err := eng.ImputeCtx(ctx, prompt, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if hit := res.Stats.PrefixHitTokens > 0; hit != wantHit {
			t.Fatalf("pass %d: prefix hit = %v, want %v", pass, hit, wantHit)
		}
		for i := 0; i < len(prompt); i++ {
			if events[i] != "emit" {
				t.Fatalf("pass %d: events start %v; want the %d prompt slots streamed before the first step", pass, events[:i+1], len(prompt))
			}
		}
		if events[len(prompt)] != "step" {
			t.Fatalf("pass %d: a sampled slot was streamed before any guided step: %v", pass, events[:len(prompt)+1])
		}
	}
}
