package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/router"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// --- nn-backed fixtures -------------------------------------------------------
//
// uniformLM/gateLM do not implement core.BatchLM, so every other server test
// steps its lanes through the decode loop's Session adapter. The
// fault-injection e2e needs the batched GEMM forward pass — the one a
// poisoned lane shares with 15 strangers — so it builds a real (tiny,
// untrained) transformer.

var (
	faultModelOnce sync.Once
	faultModelVal  *nn.Model
	faultModelErr  error
)

func faultTestModel(tb testing.TB) *nn.Model {
	tb.Helper()
	faultModelOnce.Do(func() {
		faultModelVal, faultModelErr = nn.New(nn.Config{
			Vocab: vocab.Telemetry().Size(), Ctx: 48, Dim: 16, Heads: 2, Layers: 2,
		}, 7)
	})
	if faultModelErr != nil {
		tb.Fatal(faultModelErr)
	}
	return faultModelVal
}

// nnServerEngine builds a lock-step-capable engine with an optional fault
// hook.
func nnServerEngine(tb testing.TB, hook func(core.FaultSite) error) (*core.Engine, *rules.RuleSet, *rules.Schema) {
	tb.Helper()
	schema := rulesTestSchema()
	rs, err := rules.ParseRuleSet(testRulesText, schema)
	if err != nil {
		tb.Fatal(err)
	}
	slots, err := core.TelemetryGrammar(schema, []string{"TotalIngress", "Congestion"}, "I")
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.NewEngine(core.Config{
		LM: core.WrapNN(faultTestModel(tb)), Tok: vocab.Telemetry(), Schema: schema,
		Rules: rs, Slots: slots, Mode: core.LeJIT, FaultHook: hook,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng, rs, schema
}

func newFaultServer(t *testing.T, hook func(core.FaultSite) error, tweak func(*Config)) *Server {
	t.Helper()
	eng, rs, schema := nnServerEngine(t, hook)
	cfg := Config{
		Packs: testPacks(t, eng, rs, schema, 0), DefaultPack: "default",
		BatchWindow: 150 * time.Millisecond, MaxBatch: 16, Workers: 1,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// faultBatch fires the same 16 seeded impute requests concurrently so they
// coalesce into one lock-step batch, returning per-request status code,
// decoded line, and machine status.
func faultBatch(t *testing.T, ts *httptest.Server) (codes []int, lines, statuses []string, retryAfter []string) {
	t.Helper()
	const n = 16
	codes = make([]int, n)
	lines = make([]string, n)
	statuses = make([]string, n)
	retryAfter = make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"known": {"TotalIngress": [%d], "Congestion": [%d]}, "seed": %d}`, 60+10*i, i%3, 1000+i)
			resp, data := postJSON(t, ts, "/v1/impute", body)
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
			if resp.StatusCode == http.StatusOK {
				var dr DecodeResponse
				if err := json.Unmarshal(data, &dr); err != nil {
					t.Error(err)
					return
				}
				lines[i] = dr.Line
			} else {
				var e ErrorResponse
				if err := json.Unmarshal(data, &e); err != nil {
					t.Error(err)
					return
				}
				statuses[i] = e.Status
			}
		}(i)
	}
	wg.Wait()
	return codes, lines, statuses, retryAfter
}

// TestFaultInjectionE2E is the acceptance scenario: in a 16-record lock-step
// batch, one lane is forced to panic and one to exhaust its solver budget.
// lejitd must answer 500/503 for those two requests only, the other 14
// responses must be bit-identical to an uninjected run, the process must
// survive, and /metrics must report the new counters.
func TestFaultInjectionE2E(t *testing.T) {
	// Requests are keyed by their TotalIngress value: 60+10*i.
	const panicTarget = int64(60 + 10*3)  // request 3 panics
	const budgetTarget = int64(60 + 10*9) // request 9 "stalls"

	clean := newFaultServer(t, nil, nil)
	cleanTS := httptest.NewServer(clean)
	defer cleanTS.Close()
	cleanCodes, cleanLines, _, _ := faultBatch(t, cleanTS)
	for i, code := range cleanCodes {
		if code != http.StatusOK {
			t.Fatalf("uninjected run: request %d got %d", i, code)
		}
	}

	hook := func(fs core.FaultSite) error {
		if fs.Known == nil || len(fs.Known["TotalIngress"]) == 0 || fs.Tokens < 2 {
			return nil
		}
		switch fs.Known["TotalIngress"][0] {
		case panicTarget:
			panic("injected fault: lane panic")
		case budgetTarget:
			return fmt.Errorf("injected fault: %w", core.ErrBudget)
		}
		return nil
	}
	faulty := newFaultServer(t, hook, func(c *Config) { c.DegradedThreshold = 1 })
	ts := httptest.NewServer(faulty)
	defer ts.Close()

	codes, lines, statuses, retryAfter := faultBatch(t, ts)
	for i := range codes {
		switch i {
		case 3:
			if codes[i] != http.StatusInternalServerError || statuses[i] != "panic" {
				t.Errorf("panicked request: code %d status %q, want 500/panic", codes[i], statuses[i])
			}
		case 9:
			if codes[i] != http.StatusServiceUnavailable || statuses[i] != "budget" {
				t.Errorf("budget request: code %d status %q, want 503/budget", codes[i], statuses[i])
			}
			if retryAfter[i] == "" {
				t.Error("503 budget response without Retry-After")
			}
		default:
			if codes[i] != http.StatusOK {
				t.Errorf("clean request %d got %d alongside faults", i, codes[i])
				continue
			}
			if lines[i] != cleanLines[i] {
				t.Errorf("request %d changed by poisoned batch-mates:\n got %q\nwant %q", i, lines[i], cleanLines[i])
			}
		}
	}

	// The process survives and keeps serving.
	resp, data := postJSON(t, ts, "/v1/impute", `{"known": {"TotalIngress": [55], "Congestion": [0]}, "seed": 5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault request: %d (%s)", resp.StatusCode, data)
	}

	// The new counters are exported.
	resp, data = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(data)
	for _, want := range []string{
		"lejitd_budget_exhausted_total 1",
		"lejitd_panics_recovered_total 1",
		"lejitd_lanes_retired_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	// One budget trip meets DegradedThreshold=1: healthz degrades but stays
	// HTTP 200 so load balancers keep the instance.
	resp, data = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if !strings.Contains(string(data), `"degraded"`) {
		t.Errorf("healthz not degraded after budget trip: %s", data)
	}

	// The clean server never degraded.
	resp, data = getBody(t, cleanTS.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Errorf("clean healthz: %d %s", resp.StatusCode, data)
	}
}

// TestExpiredDeadlineJob: a job whose deadline has already passed when the
// batcher picks it up is not decoded; its lane is retired with the context
// error and counted.
func TestExpiredDeadlineJob(t *testing.T) {
	s := newTestServer(t, nil)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	pk, _ := s.packs.Get(s.defaultPack)
	j := &router.Job{
		Ctx:    ctx,
		Prompt: rules.Record{"TotalIngress": {100}, "Congestion": {0}},
		Pack:   pk,
		Seed:   1,
		Start:  time.Now(),
		Resp:   make(chan router.Result, 1),
	}
	if _, ok := s.router.Submit(j); !ok {
		t.Fatal("expired job refused admission")
	}
	res := <-j.Resp
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("expired job err %v, want DeadlineExceeded", res.Err)
	}
	if got := s.Metrics().Snapshot().LanesRetired; got != 1 {
		t.Errorf("lanes retired %d, want 1", got)
	}
}

// TestDrainRefusalBeatsQueueFull: with the queue full AND the server
// draining, a new request gets the deterministic 503 draining refusal, not
// 429 — drain state is checked before admission.
func TestDrainRefusalBeatsQueueFull(t *testing.T) {
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer release()

	eng, rs, schema := testEngine(t, gateLM{vocab: vocab.Telemetry().Size(), gate: gate})
	s, err := New(Config{
		Packs: testPacks(t, eng, rs, schema, 0), DefaultPack: "default",
		BatchWindow: time.Millisecond, MaxBatch: 1, QueueDepth: 1, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := `{"known": {"TotalIngress": [100], "Congestion": [0]}}`
	done := make(chan struct{}, 2)
	post := func() {
		postJSON(t, ts, "/v1/impute", body)
		done <- struct{}{}
	}
	// Request 1 blocks on the gate inside the batcher; request 2 fills the
	// queue.
	go post()
	waitFor(t, s, func(sn Snapshot) bool { return sn.Batches == 1 })
	go post()
	waitFor(t, s, func(sn Snapshot) bool { return sn.QueueDepth == 1 })

	s.draining.Store(true)
	resp, data := postJSON(t, ts, "/v1/impute", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %s)", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Status != "draining" {
		t.Errorf("status field %q, want draining (drain must precede queue-full 429)", e.Status)
	}

	// Unblock the held decodes before Close/ts.Close tear down; the two
	// admitted requests finish normally (admission predates the drain flag).
	release()
	<-done
	<-done
}

// TestWriteDecodeResultMapping exercises the error→HTTP mapping directly,
// including failures wrapped the way the lock-step scheduler reports them.
func TestWriteDecodeResultMapping(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name       string
		err        error
		wantCode   int
		wantStatus string
	}{
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, "timeout"},
		{"budget", fmt.Errorf("lane: %w", core.ErrBudget), http.StatusServiceUnavailable, "budget"},
		{"infeasible", core.ErrInfeasible{Detail: "x"}, http.StatusUnprocessableEntity, "infeasible"},
		{"panic", &core.PanicError{Value: "boom"}, http.StatusInternalServerError, "panic"},
		{"lane-wrapped", &nn.LaneError{Lane: 3, Err: fmt.Errorf("context length exceeded")}, http.StatusInternalServerError, ""},
		{"lane-wrapped-budget", fmt.Errorf("retired: %w", &nn.LaneError{Lane: 1, Err: core.ErrBudget}), http.StatusServiceUnavailable, "budget"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		pk, _ := s.packs.Get(s.defaultPack)
		code := s.writeDecodeResult(rec, pk, router.Result{Err: tc.err})
		if code != tc.wantCode {
			t.Errorf("%s: code %d, want %d", tc.name, code, tc.wantCode)
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e.Status != tc.wantStatus {
			t.Errorf("%s: status %q, want %q", tc.name, e.Status, tc.wantStatus)
		}
		if tc.wantCode == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s: 503 without Retry-After", tc.name)
		}
	}
}

// TestTimeoutMsClampedToServerMax: a client asking for an hour-long deadline
// on a server configured with a much shorter one is clamped — the handler
// returns 504 at the server's deadline, and no batcher lane stays pinned.
func TestTimeoutMsClampedToServerMax(t *testing.T) {
	gate := make(chan struct{})
	eng, rs, schema := testEngine(t, gateLM{vocab: vocab.Telemetry().Size(), gate: gate})
	s, err := New(Config{
		Packs: testPacks(t, eng, rs, schema, 0), DefaultPack: "default",
		BatchWindow: time.Millisecond, Workers: 1,
		Timeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// LIFO: the gate must open before s.Close waits on the batcher, which is
	// parked inside the gated decode.
	defer close(gate)
	ts := httptest.NewServer(s)
	defer ts.Close()

	start := time.Now()
	resp, _ := postJSON(t, ts, "/v1/impute",
		`{"known": {"TotalIngress": [100], "Congestion": [0]}, "timeout_ms": 3600000}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("clamped request took %v; timeout_ms was not capped at cfg.Timeout", elapsed)
	}
}

// TestBatcherRestartsAfterPanic: a panic that escapes a batch (here: result
// delivery to a closed channel) kills the batcher loop once; the supervisor
// restarts it, the restart is counted, and the server keeps serving.
func TestBatcherRestartsAfterPanic(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	restartBatcher(t, s)
	resp, data := postJSON(t, ts, "/v1/impute", `{"known": {"TotalIngress": [90], "Congestion": [0]}, "seed": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart request: %d (%s)", resp.StatusCode, data)
	}
}

// restartBatcher submits a job whose result delivery panics (send on a closed
// channel) and waits for the supervisor to restart the batcher.
func restartBatcher(t *testing.T, s *Server) {
	t.Helper()
	poisoned := make(chan router.Result, 1)
	close(poisoned)
	pk, _ := s.packs.Get(s.defaultPack)
	if _, ok := s.router.Submit(&router.Job{
		Ctx:    context.Background(),
		Prompt: rules.Record{"TotalIngress": {100}, "Congestion": {0}},
		Pack:   pk,
		Seed:   1,
		Start:  time.Now(),
		Resp:   poisoned,
	}); !ok {
		t.Fatal("poisoned job refused admission")
	}
	waitFor(t, s, func(sn Snapshot) bool { return sn.BatcherRestarts >= 1 })
}

// TestBudgetStormLeavesPoolClean: a solver-budget failure retires its lane
// and nothing else, so a failed decode leaves nothing behind to clean up.
// With Workers 1 a wave of 16 requests is one lock-step group on 16 lane
// clones from the pack engine's pool. The request that exhausts its budget
// answers 503/budget, the other 15 are bit-identical to an uninjected
// server's, and its clone goes back to the pool like the others (a budget
// stop is a clean failure; only a panicked lane's clone is discarded). The
// pool keeps all 16 (its cap is the largest batch seen), so a second, clean
// wave decodes on the clones the first one used, the faulted lane's
// included, and every request — the faulted one too — must come out
// bit-identical.
func TestBudgetStormLeavesPoolClean(t *testing.T) {
	const budgetTarget = int64(60 + 10*9) // request 9 "stalls"

	clean := newFaultServer(t, nil, nil)
	cleanTS := httptest.NewServer(clean)
	defer cleanTS.Close()
	cleanCodes, cleanLines, _, _ := faultBatch(t, cleanTS)
	for i, code := range cleanCodes {
		if code != http.StatusOK {
			t.Fatalf("uninjected run: request %d got %d", i, code)
		}
	}

	var armed atomic.Bool
	armed.Store(true)
	hook := func(fs core.FaultSite) error {
		if !armed.Load() || fs.Known == nil || len(fs.Known["TotalIngress"]) == 0 || fs.Tokens < 2 {
			return nil
		}
		if fs.Known["TotalIngress"][0] == budgetTarget {
			return fmt.Errorf("injected fault: %w", core.ErrBudget)
		}
		return nil
	}
	faulty := newFaultServer(t, hook, nil)
	ts := httptest.NewServer(faulty)
	defer ts.Close()

	codes, lines, statuses, _ := faultBatch(t, ts)
	for i := range codes {
		if i == 9 {
			if codes[i] != http.StatusServiceUnavailable || statuses[i] != "budget" {
				t.Errorf("faulted request: code %d status %q, want 503/budget", codes[i], statuses[i])
			}
			continue
		}
		if codes[i] != http.StatusOK {
			t.Errorf("clean request %d got %d alongside the fault", i, codes[i])
			continue
		}
		if lines[i] != cleanLines[i] {
			t.Errorf("request %d changed by the faulted lane:\n got %q\nwant %q", i, lines[i], cleanLines[i])
		}
	}

	armed.Store(false)
	codes, lines, _, _ = faultBatch(t, ts)
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Errorf("second wave: request %d got %d", i, codes[i])
			continue
		}
		if lines[i] != cleanLines[i] {
			t.Errorf("second wave: request %d differs on the pooled clones:\n got %q\nwant %q", i, lines[i], cleanLines[i])
		}
	}
	sn := faulty.Metrics().Snapshot()
	if sn.BudgetExhausted != 1 || sn.LanesRetired != 1 || sn.BatcherRestarts != 0 {
		t.Errorf("budget %d, lanes retired %d, restarts %d; want 1, 1, 0", sn.BudgetExhausted, sn.LanesRetired, sn.BatcherRestarts)
	}
}

// TestCloseLeavesNoGoroutines: once the listener, the client's idle
// connections and the server are closed, the goroutine count falls back to
// where it was before the server was built — after ordinary traffic (unary
// and streamed, several lane groups) and after a batcher restart.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	for _, restart := range []bool{false, true} {
		t.Run(fmt.Sprintf("restart=%v", restart), func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := newTestServer(t, nil)
			ts := httptest.NewServer(s)
			if restart {
				restartBatcher(t, s)
			}
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					body := fmt.Sprintf(`{"known": {"TotalIngress": [%d], "Congestion": [0]}, "seed": %d, "stream": %v}`, 60+10*i, i, i%2 == 1)
					if resp, data := postJSON(t, ts, "/v1/impute", body); resp.StatusCode != http.StatusOK {
						t.Errorf("request %d: %d (%s)", i, resp.StatusCode, data)
					}
				}(i)
			}
			wg.Wait()
			ts.Close()
			s.Close()
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after Close, %d before the server:\n%s",
						runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
