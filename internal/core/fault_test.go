package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/rules"
	"repro/internal/vocab"
)

// nnFaultEngine is nnTestEngine plus a fault hook, for injecting failures
// into the lock-step path deterministically.
func nnFaultEngine(tb testing.TB, hook func(FaultSite) error) *Engine {
	tb.Helper()
	schema := rules.MustSchema(
		rules.Field{Name: "TotalIngress", Kind: rules.Scalar, Lo: 0, Hi: 300},
		rules.Field{Name: "Congestion", Kind: rules.Scalar, Lo: 0, Hi: 100},
		rules.Field{Name: "I", Kind: rules.Vector, Len: 5, Lo: 0, Hi: 60},
	)
	rs, err := rules.ParseRuleSet(testRules, schema)
	if err != nil {
		tb.Fatal(err)
	}
	slots, err := TelemetryGrammar(schema, []string{"TotalIngress", "Congestion"}, "I")
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEngine(Config{
		LM: WrapNN(nnTestModel(tb)), Tok: vocab.Telemetry(), Schema: schema,
		Rules: rs, Slots: slots, Mode: LeJIT, FaultHook: hook,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func faultReqs(n int) []BatchRequest {
	reqs := make([]BatchRequest, n)
	for i := range reqs {
		reqs[i].Prompt = rules.Record{"TotalIngress": {60 + 10*int64(i)}, "Congestion": {int64(i % 3)}}
	}
	return reqs
}

// poison returns a hook that fires f once the lane whose TotalIngress known
// value equals target has sampled at least two tokens — fault injection keyed
// on the request, not on batch position.
func poison(target int64, f func() error) func(FaultSite) error {
	return func(s FaultSite) error {
		if s.Known == nil || len(s.Known["TotalIngress"]) == 0 {
			return nil
		}
		if s.Known["TotalIngress"][0] == target && s.Tokens >= 2 {
			return f()
		}
		return nil
	}
}

// TestLockStepPanicIsolated: a lane that panics mid-decode fails alone with a
// *PanicError; its batch-mates' records are bit-identical to a fault-free
// run, and the engine keeps serving afterwards (the poisoned clone was
// discarded, not pooled).
func TestLockStepPanicIsolated(t *testing.T) {
	reqs := faultReqs(4)
	bad := reqs[2].Prompt["TotalIngress"][0]
	e := nnFaultEngine(t, poison(bad, func() error { panic("injected lane panic") }))
	clean := nnTestEngine(t)

	out, err := e.DecodeRequests(context.Background(), reqs, 1, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if !errors.As(out[2].Err, &pe) {
		t.Fatalf("poisoned lane err %v, want *PanicError", out[2].Err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	for _, i := range []int{0, 1, 3} {
		res, serr := soloDecode(t, clean, reqs[i], 42, i)
		if serr != nil || out[i].Err != nil {
			t.Fatalf("record %d: solo err %v, batched err %v", i, serr, out[i].Err)
		}
		if !reflect.DeepEqual(out[i].Res.Rec, res.Rec) {
			t.Errorf("record %d disturbed by panicking batch-mate: %v != %v", i, out[i].Res.Rec, res.Rec)
		}
	}

	// The process — and the engine — survive: a second batch that trips no
	// fault (different prompt values) decodes clean, proving no poisoned
	// clone re-entered the pool.
	reqs2 := faultReqs(3)
	for i := range reqs2 {
		reqs2[i].Prompt["TotalIngress"][0] += 101
	}
	out2, err := e.DecodeRequests(context.Background(), reqs2, 1, 43, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out2 {
		if r.Err != nil {
			t.Errorf("post-panic record %d: %v", i, r.Err)
		}
	}
}

// TestLockStepBudgetErrorIsolated: a lane whose solver "stalls" (the hook
// returns an error wrapping ErrBudget) fails with an error unwrapping to
// ErrBudget while its batch-mates decode untouched.
func TestLockStepBudgetErrorIsolated(t *testing.T) {
	reqs := faultReqs(4)
	bad := reqs[1].Prompt["TotalIngress"][0]
	e := nnFaultEngine(t, poison(bad, func() error {
		return fmt.Errorf("injected solver stall: %w", ErrBudget)
	}))
	clean := nnTestEngine(t)

	out, err := e.DecodeRequests(context.Background(), reqs, 1, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out[1].Err, ErrBudget) {
		t.Fatalf("stalled lane err %v, want ErrBudget", out[1].Err)
	}
	for _, i := range []int{0, 2, 3} {
		res, serr := soloDecode(t, clean, reqs[i], 9, i)
		if serr != nil || out[i].Err != nil {
			t.Fatalf("record %d: solo err %v, batched err %v", i, serr, out[i].Err)
		}
		if !reflect.DeepEqual(out[i].Res.Rec, res.Rec) {
			t.Errorf("record %d disturbed by stalled batch-mate: %v != %v", i, out[i].Res.Rec, res.Rec)
		}
	}
}

// TestSolverBudgetFailsLaneNotProcess: an absurdly small real node budget
// makes decoding fail with ErrBudget — never with a spurious ErrInfeasible,
// and never by hanging.
func TestSolverBudgetFailsLaneNotProcess(t *testing.T) {
	e := nnTestEngine(t)
	eng, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	eng.SetSolverBudget(1, 0)
	_, derr := eng.ImputeCtx(context.Background(),
		rules.Record{"TotalIngress": {120}, "Congestion": {10}}, rand.New(rand.NewSource(1)))
	if !errors.Is(derr, ErrBudget) {
		t.Fatalf("decode under 1-node budget: err %v, want ErrBudget", derr)
	}
	var inf ErrInfeasible
	if errors.As(derr, &inf) {
		t.Fatalf("budget exhaustion misreported as infeasibility: %v", derr)
	}
}

// TestSolverTimeoutStopsMidCheck: a 1ns wall-clock budget trips inside the
// very first Check instead of letting it run to completion.
func TestSolverTimeoutStopsMidCheck(t *testing.T) {
	e := nnTestEngine(t)
	eng, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	eng.SetSolverBudget(0, time.Nanosecond)
	start := time.Now()
	_, derr := eng.ImputeCtx(context.Background(),
		rules.Record{"TotalIngress": {120}, "Congestion": {10}}, rand.New(rand.NewSource(1)))
	if !errors.Is(derr, ErrBudget) {
		t.Fatalf("decode under 1ns timeout: err %v, want ErrBudget", derr)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("timeout took %v to fire", time.Since(start))
	}
}

// TestClonePoolBounded: releasing a burst of clones retains at most
// 2×NumCPU of them.
func TestClonePoolBounded(t *testing.T) {
	e := nnTestEngine(t)
	cap := 2 * runtime.NumCPU()
	for i := 0; i < cap+8; i++ {
		c, err := e.Clone()
		if err != nil {
			t.Fatal(err)
		}
		e.releaseClone(c)
	}
	e.poolMu.Lock()
	n := len(e.pool)
	e.poolMu.Unlock()
	if n > cap {
		t.Fatalf("pool retained %d clones, cap %d", n, cap)
	}
}

// TestImputeCtxPanicIsError: a direct ImputeCtx is a batch of one, so a panic
// inside it comes back as a *PanicError instead of reaching the caller, and
// — there being no clone to discard — the same engine, its solver frame
// popped, decodes the next record exactly as a clean engine does.
func TestImputeCtxPanicIsError(t *testing.T) {
	reqs := faultReqs(2)
	bad := reqs[0].Prompt["TotalIngress"][0]
	e := nnFaultEngine(t, poison(bad, func() error { panic("injected solo panic") }))

	_, err := e.ImputeCtx(context.Background(), reqs[0].Prompt, rand.New(rand.NewSource(1)))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking ImputeCtx err %v, want *PanicError", err)
	}
	got, err := e.ImputeCtx(context.Background(), reqs[1].Prompt, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("decode after a recovered panic: %v", err)
	}
	want, err := nnTestEngine(t).ImputeCtx(context.Background(), reqs[1].Prompt, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rec, want.Rec) {
		t.Errorf("record after a recovered panic %v != clean engine's %v", got.Rec, want.Rec)
	}
}

// TestOverridePanicRecovered: a request with a Decode override that panics
// gets that record's *PanicError while the rest of the batch decodes.
func TestOverridePanicRecovered(t *testing.T) {
	e := nnTestEngine(t)
	reqs := faultReqs(3)
	reqs[1].Decode = func(ctx context.Context, eng *Engine, known rules.Record, rng *rand.Rand) (Result, error) {
		panic("injected override panic")
	}
	out, err := e.DecodeRequests(context.Background(), reqs, 2, 17, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if !errors.As(out[1].Err, &pe) {
		t.Fatalf("override lane err %v, want *PanicError", out[1].Err)
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil {
			t.Errorf("record %d failed alongside panicking override: %v", i, out[i].Err)
		}
	}
}
