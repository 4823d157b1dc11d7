package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nn"
	"repro/internal/race"
	"repro/internal/rules"
)

// TestFastPathStepAllocsNothing is the decode step's allocation gate: a warm
// lane's token step that the oracle answers without a solver Check and that
// crosses no slot boundary allocates nothing. Each such step of generated
// and imputed records is replayed from a snapshot of the lane (with the
// RNG re-seeded, so it samples the same token) under testing.AllocsPerRun.
func TestFastPathStepAllocsNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := nnTestEngine(t)
	m := nnTestModel(t)
	measured := 0
	for i, known := range []rules.Record{nil, {"TotalIngress": {120}, "Congestion": {10}}, nil, {"TotalIngress": {200}, "Congestion": {2}}} {
		rng := rand.New(rand.NewSource(int64(i)))
		ld := e.newLaneDecoder(context.Background(), known, rng, nil)
		sess := m.NewSession()
		var logits []float32
		for step := int64(0); !ld.done(); step++ {
			warmStep := len(ld.pending) == 0 && ld.inSlot
			saved, checks := *ld, e.solver.Stats().Checks
			rng.Seed(step)
			tok, err := ld.next(logits)
			if err != nil {
				t.Fatal(err)
			}
			if warmStep && tok != ld.sepID && e.solver.Stats().Checks == checks {
				allocs := testing.AllocsPerRun(20, func() {
					*ld = saved
					rng.Seed(step)
					if again, err := ld.next(logits); err != nil || again != tok {
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
	if measured < 4 {
		t.Fatalf("only %d fast-path steps measured: the gate checks too little", measured)
	}
	t.Logf("%d fast-path steps replayed", measured)
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

// TestBatchSessionPool pins the free list's policy: sessions are created at
// a power-of-two lane count, the smallest idle one that fits is reused, and
// the list keeps at most poolLimit sessions, dropping the excess.
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

	e.poolMu.Lock()
	limit := e.poolLimit()
	e.poolMu.Unlock()
	held := make([]BatchSession, limit+2)
	for i := range held {
		held[i] = e.acquireBatchSession(8)
	}
	for _, bs := range held {
		e.releaseBatchSession(bs)
	}
	e.poolMu.Lock()
	idle := append([]reusableBatchSession(nil), e.sessions...)
	e.poolMu.Unlock()
	if len(idle) != limit {
		t.Fatalf("free list holds %d sessions, want its limit %d", len(idle), limit)
	}
	for i, bs := range held {
		kept := false
		for _, s := range idle {
			kept = kept || s == bs
		}
		if want := i < limit; kept != want {
			t.Errorf("session released %d-th kept=%v, want %v (a full list drops the excess)", i, kept, want)
		}
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

// TestSeededRNGMatchesNewSource: re-seeding an engine's RNG yields the stream
// of a fresh rand.New(rand.NewSource(seed)), whatever it drew before.
func TestSeededRNGMatchesNewSource(t *testing.T) {
	e := nnTestEngine(t)
	for _, seed := range []int64{0, 1, -7, MixSeed(9, 3)} {
		r := e.seededRNG(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 700; i++ { // past the source's 607-word state
			if a, b := r.Float64(), ref.Float64(); a != b {
				t.Fatalf("seed %d draw %d: %v, fresh source %v", seed, i, a, b)
			}
		}
		r.Intn(5) // leave the stream mid-way for the next re-seed
	}
}
