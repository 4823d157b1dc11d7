package core

import (
	"context"
	"math/rand"

	"repro/internal/rules"
)

// Impute generates the slots not covered by known, conditioned on the known
// prefix (the paper's telemetry-imputation task: coarse counters in, fine
// series out), enforcing the rule set Just-In-Time.
func (e *Engine) Impute(known rules.Record, rng *rand.Rand) (Result, error) {
	return e.decodeOne(context.Background(), MethodGuided, known, rng)
}

// ImputeCtx is Impute under a context: a cancelled or expired context stops
// the decode at the next token boundary — before the next round of solver
// probes — and returns the context's error. A panic inside the decode (an
// invariant breach, a panicking FaultHook or LM) is returned as a
// *PanicError, as on every batch path, instead of reaching the caller; the
// record's solver frame has been popped, so the engine can decode the next
// record.
func (e *Engine) ImputeCtx(ctx context.Context, known rules.Record, rng *rand.Rand) (Result, error) {
	return e.decodeOne(ctx, MethodGuided, known, rng)
}

// Generate produces a full record unconditionally (the synthetic-data task),
// enforcing the rule set Just-In-Time.
func (e *Engine) Generate(rng *rand.Rand) (Result, error) {
	return e.decodeOne(context.Background(), MethodGuided, nil, rng)
}

// GenerateCtx is Generate under a context (see ImputeCtx).
func (e *Engine) GenerateCtx(ctx context.Context, rng *rand.Rand) (Result, error) {
	return e.decodeOne(ctx, MethodGuided, nil, rng)
}

// decodeOne decodes one record under method as a batch of one: a single
// lane on the receiver, stepped by the same lock-step loop that decodes
// every batch (lockstep.go).
func (e *Engine) decodeOne(ctx context.Context, method Method, known rules.Record, rng *rand.Rand) (Result, error) {
	var out BatchResult
	e.decodeLockStep([]*lsLane{{out: &out, ctx: ctx, method: method, known: known, rng: rng, eng: e}})
	return out.Res, out.Err
}
