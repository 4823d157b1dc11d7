package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rules"
)

// DecodeFn decodes one prompt on an engine. DecodeBatch calls it with an
// engine dedicated to the call and a per-prompt RNG; implementations must
// not retain either across calls. Method expressions over *Engine fit
// directly, e.g. (*Engine).Vanilla.
type DecodeFn func(e *Engine, known rules.Record, rng *rand.Rand) (Result, error)

// DecodeCtxFn is the context-aware form of DecodeFn. The context is the
// per-record one (see BatchRequest.Ctx); implementations should abandon the
// decode promptly once it is cancelled.
type DecodeCtxFn func(ctx context.Context, e *Engine, known rules.Record, rng *rand.Rand) (Result, error)

// BatchRequest is one record's worth of work for DecodeRequests. The zero
// value (plus a Prompt) behaves exactly like an entry of DecodeBatch's
// prompt slice.
type BatchRequest struct {
	// Prompt is the known prefix; nil means unconditional generation.
	Prompt rules.Record
	// Ctx cancels just this record. nil means the batch context. A request
	// whose context is already done is not decoded at all; its BatchResult
	// carries the context's error.
	Ctx context.Context
	// Seed, when non-nil, overrides the index-derived RNG seed. This is what
	// lets a serving layer coalesce requests from independent callers into
	// one batch while keeping each caller's output a deterministic function
	// of its own seed, not of batch composition (DESIGN.md §8).
	Seed *int64
	// Decode, when non-nil, overrides the batch-level decode function for
	// this record (e.g. a per-request baseline mode).
	Decode DecodeCtxFn
	// NoPrefixCache opts this record out of the engine's cross-request
	// prefix cache: no warm start and no snapshot capture. Output is
	// unaffected either way (warm decodes are bit-identical); the knob
	// exists for isolation — e.g. keeping a tenant's prompts out of shared
	// cache state — and for cold-path measurement.
	NoPrefixCache bool
}

// prefixCacheOffKey marks a context whose decodes must skip the prefix
// cache (see DisablePrefixCache).
type prefixCacheOffKey struct{}

// DisablePrefixCache returns a context under which guided decodes neither
// consult nor populate the engine's prefix cache. Used by the serving layer
// for per-request opt-out; callers invoking ImputeCtx/GenerateCtx directly
// can use it too.
func DisablePrefixCache(ctx context.Context) context.Context {
	return context.WithValue(ctx, prefixCacheOffKey{}, true)
}

func prefixCacheDisabled(ctx context.Context) bool {
	off, _ := ctx.Value(prefixCacheOffKey{}).(bool)
	return off
}

// emitKey carries a per-request slot-emit hook (streaming responses).
type emitKey struct{}

// EmitFn receives one completed slot's rendered text (digits plus trailing
// separator) as soon as its separator is decoded. Chunks arrive in slot
// order and their concatenation equals the full rendered line byte for byte.
// Implementations run on the decoding goroutine and must not block.
type EmitFn func(slot int, text string)

// WithEmit returns a context under which guided decodes stream each
// completed slot to fn; a streamed chunk is final (DESIGN.md §16). The
// serving layer uses it for SSE responses; callers invoking
// ImputeCtx/GenerateCtx directly can too.
func WithEmit(ctx context.Context, fn EmitFn) context.Context {
	return context.WithValue(ctx, emitKey{}, fn)
}

// emitFor resolves the slot-emit hook for a decode (nil → no streaming).
func emitFor(ctx context.Context) EmitFn {
	fn, _ := ctx.Value(emitKey{}).(EmitFn)
	return fn
}

// WithLookahead returns ctx unchanged. Speculative decoding was removed
// (DESIGN.md §13): every guided decode runs the exact per-token path. The
// function stays only for the repository benchmark's core.spec_* probes,
// which now time that path; like Stats.SpecAcceptedTokens, it is due to go
// with the benchmark's next change.
func WithLookahead(ctx context.Context, k int) context.Context { return ctx }

// BatchResult pairs one prompt's decode outcome with its index.
type BatchResult struct {
	Index int
	Res   Result
	Err   error
}

// MixSeed derives the RNG seed for record i of a batch seeded with seed.
// Seeding by index rather than by decode order is what makes batch output
// independent of worker count and scheduling. The finalizer is splitmix64:
// unlike the earlier affine seed+i*7919 scheme, distinct (seed, i) pairs
// cannot collide by construction of a small seed delta, so two nearby batch
// seeds never share per-record RNG streams.
func MixSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// DecodeBatch decodes prompts[i] for every i and returns results in prompt
// order. A nil prompt means unconditional generation; a nil decode selects
// the guided decoder (Generate/Impute). workers < 1 means
// runtime.GOMAXPROCS(0).
//
// Determinism contract: prompt i is decoded with
// rand.NewSource(MixSeed(seed, i)) on a clone of the receiver, so for a
// fixed seed the returned records are byte-identical for every worker count.
// Engines are single-threaded; each record in flight has a pooled clone to
// itself, while the LM weights and the compiled rule formula are shared
// read-only.
func (e *Engine) DecodeBatch(prompts []rules.Record, workers int, seed int64, decode DecodeFn) ([]BatchResult, error) {
	var dc DecodeCtxFn
	if decode != nil {
		dc = func(_ context.Context, eng *Engine, known rules.Record, rng *rand.Rand) (Result, error) {
			return decode(eng, known, rng)
		}
	}
	return e.DecodeBatchCtx(context.Background(), prompts, workers, seed, dc)
}

// DecodeBatchCtx is DecodeBatch under a context: cancelling ctx stops
// in-flight decodes at the next token boundary and skips records not yet
// started (their BatchResult.Err is the context error).
func (e *Engine) DecodeBatchCtx(ctx context.Context, prompts []rules.Record, workers int, seed int64, decode DecodeCtxFn) ([]BatchResult, error) {
	reqs := make([]BatchRequest, len(prompts))
	for i, p := range prompts {
		reqs[i].Prompt = p
	}
	return e.DecodeRequests(ctx, reqs, workers, seed, decode)
}

// DecodeRequests is the most general batch entry point: each request may
// carry its own context, seed, and decode function (see BatchRequest). It
// preserves DecodeBatch's determinism contract — request i without an
// explicit seed uses rand.NewSource(MixSeed(seed, i)) — while letting a
// serving layer cancel or time out individual records without aborting the
// batch. Per-record failures, including context cancellation and recovered
// panics (*PanicError), land in BatchResult.Err; the returned error is
// always nil and is kept for the callers that check it.
//
// Requests decoded by the guided decoder (no Decode override, nil decode)
// become lanes of the lock-step loop (lockstep.go), cut into at most workers
// contiguous groups, each stepping through one shared BatchSession.
// Requests under a decode function (the baselines) run one record at a time
// on a pooled clone. Groups and override records drain from one work list on
// at most workers goroutines, the caller's included. Neither the grouping
// nor the worker count affects output: every record's seed, engine, and
// decoder are its own.
func (e *Engine) DecodeRequests(ctx context.Context, reqs []BatchRequest, workers int, seed int64, decode DecodeCtxFn) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]BatchResult, len(reqs))
	e.notePoolDemand(len(reqs))

	// Resolve every request once: its context with the per-request overrides
	// applied, its seeded RNG, and which decoder runs it.
	var lanes []*lsLane
	var overrides []func()
	plans := make(map[string]*promptPlan)
	for i := range reqs {
		r, res := &reqs[i], &out[i]
		res.Index = i
		rctx := r.Ctx
		if rctx == nil {
			rctx = ctx
		}
		// A request whose context is already done is not decoded at all.
		if err := rctx.Err(); err != nil {
			res.Err = err
			continue
		}
		if r.NoPrefixCache {
			rctx = DisablePrefixCache(rctx)
		}
		s := MixSeed(seed, i)
		if r.Seed != nil {
			s = *r.Seed
		}
		d := r.Decode
		if d == nil {
			d = decode
		}
		if d == nil {
			lanes = append(lanes, &lsLane{out: res, ctx: rctx, known: r.Prompt, seed: s, plan: e.planPrompt(r.Prompt, plans)})
			continue
		}
		overrides = append(overrides, func() { e.decodeOverride(rctx, d, r.Prompt, s, res) })
	}
	// The work list: the groups first — they are the long items — then one
	// item per override record.
	groups := workers
	if groups > len(lanes) {
		groups = len(lanes)
	}
	work := make([]func(), 0, groups+len(overrides))
	for g := 0; g < groups; g++ {
		group := lanes[g*len(lanes)/groups : (g+1)*len(lanes)/groups]
		work = append(work, func() { e.decodeLockStep(group) })
	}
	work = append(work, overrides...)

	var next atomic.Int64
	drain := func() {
		for i := next.Add(1) - 1; i < int64(len(work)); i = next.Add(1) - 1 {
			work[i]()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers && w < len(work); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
	return out, nil
}

// decodeOverride runs one record under a decode function on a pooled clone,
// drawing from the clone's RNG seeded with seed. A panic inside the decode
// becomes the record's *PanicError and the clone is discarded rather than
// pooled: the panic unwound through its solver and session state.
func (e *Engine) decodeOverride(ctx context.Context, decode DecodeCtxFn, known rules.Record, seed int64, out *BatchResult) {
	eng, err := e.acquireClone()
	if err != nil {
		out.Err = err
		return
	}
	out.Err = guardLane(func() (derr error) {
		out.Res, derr = decode(ctx, eng, known, eng.seededRNG(seed))
		return derr
	})
	var pe *PanicError
	if !errors.As(out.Err, &pe) {
		e.releaseClone(eng)
	}
}
