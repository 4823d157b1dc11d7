package core

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/rules"
)

// Method selects how a lane decodes its record. The zero value is the
// guided decoder, so a zero BatchRequest decodes as Impute/Generate do. The
// other three are the paper's free-sampling baselines; every method decodes
// as a lane of the same lock-step loop (lockstep.go).
type Method int

const (
	// MethodGuided masks every step by the engine's Mode: LeJIT's solver
	// lookahead, or StructureOnly's grammar (Impute/Generate).
	MethodGuided Method = iota
	// MethodFree is the paper's "Vanilla GPT-2" baseline: it samples every
	// character and EOS freely — no rules, no masking beyond the tokenizer's
	// vocabulary — until the grammar's final separator, and parses the
	// sample, restarting from the prompt while it is malformed, up to 8
	// re-samples (counted in Stats.Malformed).
	MethodFree
	// MethodRejection is the rejection-sampling baseline: it restarts a free
	// sample that violates a rule, up to MaxAttempts. The paper's Fig 3 shows
	// why this is hopeless at scale — the model repeats the same mistakes
	// because nothing guides it.
	MethodRejection
	// MethodPostHoc is post-inference enforcement (§2.2, the NetDiffusion /
	// Zoom2Net-CEM strategy): it samples freely once, then projects a
	// violating record onto the feasible region by L1-minimal integer
	// repair. The projection guarantees compliance but optimizes numerical
	// distance, not likelihood — the fidelity cost the paper measures.
	MethodPostHoc
)

// BatchRequest is one record's worth of work for DecodeRequests. The zero
// value (plus a Prompt) behaves exactly like an entry of DecodeBatch's
// prompt slice under MethodGuided.
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
	// Method is how this record decodes (e.g. a per-request baseline mode).
	Method Method
}

// prefixCacheOffKey marks a context whose decodes must skip the prefix
// cache (see DisablePrefixCache).
type prefixCacheOffKey struct{}

// DisablePrefixCache returns a context under which guided decodes neither
// consult nor populate the engine's prefix cache: no warm start and no
// snapshot capture. Output is unaffected either way (warm decodes are
// bit-identical); the opt-out exists for isolation — e.g. keeping a tenant's
// prompts out of shared cache state — and for cold-path measurement. The
// serving layer sets it on a request's context (BatchRequest.Ctx); callers
// invoking ImputeCtx/GenerateCtx directly can use it too.
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
// independent of worker count and scheduling. The finalizer is splitmix64,
// a bijection on 64 bits: under one seed, distinct i get distinct seeds, and
// unlike the earlier affine seed+i*7919 scheme two nearby batch seeds do not
// share a run of per-record seeds. Their streams can still coincide: the
// math/rand stream a seed selects (seededRNG) depends only on seed mod
// (2³¹−1), so two records of one batch draw identical streams at the
// birthday bound of 31 bits, about one pair per 65 000 records (records
// 27 941 and 80 522 under seed 1 do).
func MixSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// DecodeBatch decodes prompts[i] under method for every i and returns
// results in prompt order. A nil prompt means unconditional generation.
// workers < 1 means runtime.GOMAXPROCS(0).
//
// Determinism contract: prompt i is decoded with the stream of
// rand.NewSource(MixSeed(seed, i)) on a clone of the receiver, so for a
// fixed seed the returned records are byte-identical for every worker count.
// Engines are single-threaded; each record in flight has a pooled clone to
// itself, while the LM weights and the compiled rule formula are shared
// read-only.
func (e *Engine) DecodeBatch(prompts []rules.Record, workers int, seed int64, method Method) []BatchResult {
	reqs := make([]BatchRequest, len(prompts))
	for i, p := range prompts {
		reqs[i] = BatchRequest{Prompt: p, Method: method}
	}
	out, _ := e.DecodeRequests(context.Background(), reqs, workers, seed, nil) // always a nil error
	return out
}

// decodeSeam is the type of DecodeRequests' last parameter, which only nil
// can fill outside the package.
type decodeSeam struct{}

// DecodeRequests is the most general batch entry point: each request may
// carry its own context, seed, and method (see BatchRequest). It preserves
// DecodeBatch's determinism contract — request i without an explicit seed
// draws the stream of rand.NewSource(MixSeed(seed, i)) — while letting a
// serving layer cancel or time out individual records without aborting the
// batch.
// Per-record failures, including context cancellation and recovered panics
// (*PanicError), land in BatchResult.Err; the returned error is always nil
// and is kept only because the repository benchmark reads it.
//
// Every request becomes a lane of the lock-step loop (lockstep.go); the
// lanes are cut into at most workers contiguous groups, each stepping
// through one shared BatchSession on its own goroutine, the caller's for the
// first. Neither the grouping nor the worker count affects output: every
// record's seed, engine, and decoder are its own.
//
// The last parameter is ignored and only nil fits it: it stays only because
// the repository benchmark passes nil there, and goes with the benchmark's
// next change, like WithLookahead.
func (e *Engine) DecodeRequests(ctx context.Context, reqs []BatchRequest, workers int, seed int64, _ *decodeSeam) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]BatchResult, len(reqs))

	// Resolve every request once: its context with the per-request overrides
	// applied, its seed, and its planned prompt.
	lanes := make([]*lsLane, 0, len(reqs))
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
		s := MixSeed(seed, i)
		if r.Seed != nil {
			s = *r.Seed
		}
		lanes = append(lanes, &lsLane{out: res, ctx: rctx, method: r.Method, known: r.Prompt, seed: s, plan: e.planPrompt(r.Prompt, plans)})
	}
	groups := min(workers, len(lanes))
	var wg sync.WaitGroup
	for g := 1; g < groups; g++ {
		group := lanes[g*len(lanes)/groups : (g+1)*len(lanes)/groups]
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.decodeLockStep(group)
		}()
	}
	if groups > 0 {
		e.decodeLockStep(lanes[:len(lanes)/groups])
	}
	wg.Wait()
	return out, nil
}
