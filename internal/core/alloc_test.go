package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nn"
	"repro/internal/prefixcache"
	"repro/internal/race"
	"repro/internal/rules"
)

// TestFastPathStepAllocsNothing is the decode step's allocation gate: a warm
// lane's token step that the oracle answers without a solver Check and that
// crosses no slot boundary allocates nothing. Each such step of generated
// and imputed records is replayed from a snapshot of the lane (with the
// RNG re-seeded, so it samples the same token) under testing.AllocsPerRun.
// The replayed steps must include model repairs that move two or more
// variables besides the patched one — the last record's extra coupling makes
// a patched Congestion move I[0] or I[1] and then a third I to restore the
// sum — and the repair log and the clause state, rebuilt on every replay,
// live on the engine.
func TestFastPathStepAllocsNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := nnTestModel(t)
	plain := nnTestEngine(t)
	chained := nnEngineWith(t, m, testRules+"rule r4: I[0] + I[1] == Congestion\n")
	measured, multi, rebuilt := 0, 0, 0
	for i, c := range []struct {
		e     *Engine
		known rules.Record
	}{
		{plain, nil}, {plain, rules.Record{"TotalIngress": {120}, "Congestion": {10}}},
		{plain, nil}, {plain, rules.Record{"TotalIngress": {200}, "Congestion": {2}}},
		{chained, nil}, {chained, nil},
	} {
		e, known := c.e, c.known
		rng := rand.New(rand.NewSource(int64(i)))
		ld := e.newLaneDecoder(context.Background(), MethodGuided, known, rng, nil)
		sess := m.NewSession()
		var logits []float32
		for step := int64(0); !ld.done(); step++ {
			warmStep := len(ld.pending) == 0 && ld.inSlot
			// A replay restores the lane, its slot oracle and the witness
			// model, so it repeats the first run's patches and repairs. The
			// model is restored through noteModel, which invalidates its
			// clause state: each replay's first patch rebuilds it, so the
			// rebuild is measured too.
			saved, checks := *ld, e.solver.Stats().Checks
			savedModel, savedEpoch := append([]int64(nil), e.lastModel...), e.lastModelEpoch
			var savedOracle slotOracle
			var savedW []int64
			if ld.oracle != nil {
				savedOracle, savedW = *ld.oracle, append(savedW, ld.oracle.wvals...)
			}
			rng.Seed(step)
			e.nMoves = 0
			tok, err := stepLane(ld, logits)
			if err != nil {
				t.Fatal(err)
			}
			// The log holds the step's last patch; its moves stuck (the
			// repair succeeded) unless they were rolled back to the old values.
			repaired := func() bool { return e.nMoves >= 3 && e.lastModel[e.moves[1].v] != e.moves[1].old }
			if warmStep && tok != ld.sepID && e.solver.Stats().Checks == checks {
				multiStep := repaired()
				allocs := testing.AllocsPerRun(20, func() {
					*ld = saved
					e.noteModel(append(e.lastModel[:0], savedModel...))
					e.lastModelEpoch = savedEpoch
					if o := saved.oracle; o != nil {
						w := o.wvals[:0] // the list's grown array, as a rerun meets it
						*o = savedOracle
						o.wvals = append(w, savedW...)
					}
					rng.Seed(step)
					if again, err := stepLane(ld, logits); err != nil || again != tok {
						t.Fatalf("replayed step sampled %d (%v), first run %d", again, err, tok)
					}
					if err := ld.advance(tok); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("record %v step %d: fast-path step allocates %.0f objects, want 0", known, step, allocs)
				}
				if e.solver.Stats().Checks != checks {
					t.Fatalf("record %v step %d: a replayed fast-path step reached the solver", known, step)
				}
				if e.repairState.valid {
					rebuilt++ // the replay's patch rebuilt what noteModel invalidated
				}
				if multiStep {
					if !repaired() {
						t.Fatalf("record %v step %d: the replay did not repeat the first run's repair", known, step)
					}
					multi++
				}
				measured++
			} else if err := ld.advance(tok); err != nil {
				t.Fatal(err)
			}
			if err := sess.Append(tok); err != nil {
				t.Fatal(err)
			}
			logits = sess.Logits()
		}
		if ld.err != nil {
			t.Fatal(ld.err)
		}
	}
	if measured < 4 || multi == 0 || rebuilt == 0 {
		t.Fatalf("only %d fast-path steps measured, %d of them with a repair of ≥ 2 moves and %d rebuilding the clause state: the gate checks too little", measured, multi, rebuilt)
	}
	t.Logf("%d fast-path steps replayed, %d with a repair of ≥ 2 moves, %d rebuilding the clause state", measured, multi, rebuilt)
}

// stepLane runs both halves of a lane's next token as the decode loop does,
// handing pick the logits only when mask asks for them.
func stepLane(ld *laneDecoder, logits []float32) (int, error) {
	reads, err := ld.mask()
	if err != nil {
		return 0, err
	}
	if !reads {
		logits = nil
	}
	return ld.pick(logits)
}

// TestReusedBatchSessionAllocsNothing: once a lane group's session is back
// on the engine's free list, acquiring it for the next group of that size
// allocates nothing.
func TestReusedBatchSessionAllocsNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := nnTestEngine(t)
	e.releaseBatchSession(e.acquireBatchSession(3))
	if allocs := testing.AllocsPerRun(20, func() {
		e.releaseBatchSession(e.acquireBatchSession(3))
	}); allocs != 0 {
		t.Errorf("acquiring a reused session allocates %.0f objects, want 0", allocs)
	}
}

// TestGuidedLaneSetUpAllocs pins what a guided lane's set-up allocates in a
// reused batch: startLane on a pooled clone and a reused session, the
// prompt planned once for the batch, then settle. The lane is cold (a cache
// miss, so it installs its capture hook) or warm (a whole-prompt hit seeded
// into the lane). Neither copies the prompt: the lane's cache key and feed
// queue are the plan's tokens. Most of the count is the prompt's
// assertions and, cold, the feasibility Check; warm, the hit and its
// witness copy come in its place.
func TestGuidedLaneSetUpAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := nnPrefixEngine(t, prefixcache.New(16<<20), "")
	known := rules.Record{"TotalIngress": {120}, "Congestion": {10}}
	plan := e.planPrompt(known, nil)
	bs := e.acquireBatchSession(1)
	defer e.releaseBatchSession(bs)
	out := new(BatchResult)
	la := new(lsLane)
	setUp := func() *lsLane {
		*la = lsLane{out: out, ctx: context.Background(), method: MethodGuided, known: known, seed: 1, plan: plan}
		if !e.startLane(bs, la) {
			t.Fatalf("lane set-up failed: %v", out.Err)
		}
		e.settle(la)
		bs.ResetLane(0)
		return la
	}
	for _, c := range []struct {
		name   string
		warm   bool
		allocs float64
	}{{"cold", false, 14}, {"warm", true, 14}} {
		if c.warm {
			if _, err := e.DecodeRequests(context.Background(), []BatchRequest{{Prompt: known}}, 1, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		if hit := setUp().ld.res.Stats.PrefixHitTokens > 0; hit != c.warm {
			t.Fatalf("%s: prefix hit = %v", c.name, hit)
		}
		if got := testing.AllocsPerRun(50, func() { setUp() }); got != c.allocs {
			t.Errorf("%s lane set-up allocates %.0f objects, want %.0f", c.name, got, c.allocs)
		}
	}
}

// TestBatchSessionPool pins the free list's fit: sessions are created at a
// power-of-two lane count, and the smallest idle one that fits is reused.
func TestBatchSessionPool(t *testing.T) {
	e := nnTestEngine(t)
	lanes := func(bs BatchSession) int { return bs.(reusableBatchSession).Lanes() }
	s3 := e.acquireBatchSession(3)
	s9 := e.acquireBatchSession(9)
	if lanes(s3) != 4 || lanes(s9) != 16 {
		t.Fatalf("new sessions have %d and %d lanes, want 4 and 16", lanes(s3), lanes(s9))
	}
	e.releaseBatchSession(s9)
	e.releaseBatchSession(s3)
	if got := e.acquireBatchSession(2); got != s3 {
		t.Error("a 2-lane group did not reuse the idle 4-lane session")
	}
	if got := e.acquireBatchSession(5); got != s9 {
		t.Error("a 5-lane group did not reuse the idle 16-lane session")
	}
}

// panicBatchLM is WrapNN's batched LM whose forward pass panics once armed:
// the fault hook arms it, so a pooled session's AppendBatch unwinds mid-batch
// exactly when a chosen request has started sampling.
type panicBatchLM struct {
	nnLM
	armed *bool
}

func (p panicBatchLM) NewBatchSession(n int) BatchSession {
	return &panicSession{BatchSession: p.m.NewBatchSession(n), armed: p.armed}
}

type panicSession struct {
	*nn.BatchSession
	armed *bool
}

func (s *panicSession) AppendBatch(lanes, toks []int) error {
	if *s.armed {
		*s.armed = false
		panic("injected forward-pass panic")
	}
	return s.BatchSession.AppendBatch(lanes, toks)
}

// TestForwardPanicDropsSession: a forward pass that panics fails every lane
// of its group with a *PanicError and its session is not pooled, and the
// engine's next batch — on pooled sessions and clones — equals a fresh
// engine's.
func TestForwardPanicDropsSession(t *testing.T) {
	armed := new(bool)
	lm := panicBatchLM{nnLM: nnLM{m: nnTestModel(t)}, armed: armed}
	mk := func(hook func(FaultSite) error) *Engine {
		base := nnTestEngine(t).Configuration()
		base.LM, base.FaultHook = lm, hook
		e, err := NewEngine(base)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	reqs := faultReqs(4)
	bad := reqs[1].Prompt["TotalIngress"][0]
	e := mk(poison(bad, func() error { *armed = true; return nil }))

	// shift moves every prompt off the value the hook is keyed on.
	shift := func(reqs []BatchRequest) []BatchRequest {
		for i := range reqs {
			reqs[i].Prompt["TotalIngress"][0] += 101
		}
		return reqs
	}
	// Warm the free list with a session the panicking batch then takes.
	if _, err := e.DecodeRequests(context.Background(), shift(faultReqs(4)), 1, 3, nil); err != nil {
		t.Fatal(err)
	}
	e.poolMu.Lock()
	pooled := append([]reusableBatchSession(nil), e.sessions...)
	e.poolMu.Unlock()
	out, err := e.DecodeRequests(context.Background(), reqs, 1, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		var pe *PanicError
		if !errors.As(r.Err, &pe) {
			t.Fatalf("record %d: err %v, want the forward pass's *PanicError", i, r.Err)
		}
	}
	e.poolMu.Lock()
	after := append([]reusableBatchSession(nil), e.sessions...)
	e.poolMu.Unlock()
	if len(after) != 0 || len(pooled) != 1 {
		t.Fatalf("free list held %d sessions before the panicking batch and %d after, want 1 and 0", len(pooled), len(after))
	}

	next := shift(faultReqs(5))
	next[3].Prompt = nil
	got, err := e.DecodeRequests(context.Background(), next, 2, 43, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mk(nil).DecodeRequests(context.Background(), next, 2, 43, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range next {
		if got[i].Err != nil || !reflect.DeepEqual(got[i].Res, want[i].Res) {
			t.Errorf("record %d after the panic: %+v (%v), fresh engine %+v (%v)", i, got[i].Res, got[i].Err, want[i].Res, want[i].Err)
		}
	}
}
