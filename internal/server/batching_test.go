package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/vocab"
)

// TestMicroBatchCoalesce is the satellite's headline assertion: two
// concurrent requests arriving within the batch window must land in ONE
// core.DecodeRequests call.
func TestMicroBatchCoalesce(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.BatchWindow = 250 * time.Millisecond
		c.MaxBatch = 8
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	sizes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts, "/v1/impute",
				fmt.Sprintf(`{"known": {"TotalIngress": [%d], "Congestion": [0]}, "seed": %d}`, 100+i, i))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			var dr DecodeResponse
			if err := json.Unmarshal(data, &dr); err != nil {
				t.Error(err)
				return
			}
			sizes[i] = dr.BatchSize
		}(i)
	}
	wg.Wait()

	snap := s.Metrics().Snapshot()
	if snap.Batches != 1 {
		t.Fatalf("dispatched %d batches, want 1", snap.Batches)
	}
	if snap.BatchedRecs != 2 {
		t.Fatalf("batched %d records, want 2", snap.BatchedRecs)
	}
	for i, sz := range sizes {
		if sz != 2 {
			t.Errorf("request %d reported batch_size %d, want 2", i, sz)
		}
	}
}

// TestBackpressure fills the admission queue while the batcher is held on a
// gated decode and checks the next request is refused with 429 + Retry-After
// instead of queuing unboundedly.
func TestBackpressure(t *testing.T) {
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
	codes := make(chan int, 2)
	post := func() {
		resp, _ := postJSON(t, ts, "/v1/impute", body)
		codes <- resp.StatusCode
	}

	// Request 1 is dequeued by the batcher and blocks on the gate.
	go post()
	waitFor(t, s, func(sn Snapshot) bool { return sn.Batches == 1 })
	// Request 2 sits in the queue (depth 1 → now full).
	go post()
	waitFor(t, s, func(sn Snapshot) bool { return sn.QueueDepth == 1 })

	// Request 3 must bounce immediately.
	resp, data := postJSON(t, ts, "/v1/impute", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Status != "overloaded" {
		t.Errorf("status field %q, want overloaded", e.Status)
	}

	release()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("held request finished with %d, want 200", code)
		}
	}
	if got := s.Metrics().Snapshot().Rejected; got != 1 {
		t.Errorf("rejected counter %d, want 1", got)
	}
}

// sleepLM sleeps on every Append, the forward: a decode whose cost the test
// sets. A forced step reads no logits, so a sleep in Logits would skip it.
type sleepLM struct {
	vocab int
	d     time.Duration
}

func (l sleepLM) VocabSize() int { return l.vocab }
func (l sleepLM) NewSession() core.Session {
	return &sleepSession{d: l.d, logits: make([]float32, l.vocab)}
}

type sleepSession struct {
	d      time.Duration
	logits []float32
}

func (s *sleepSession) Append(tok int) error { time.Sleep(s.d); return nil }
func (s *sleepSession) Logits() []float32    { return s.logits }

// violatingLM free-samples the fine vector "1,1,1,1,1\n" after any
// impute prompt — well-formed, and with a sum of 5 it breaks rule r2 for
// every TotalIngress but 5 — and sleeps d on every Logits call.
type violatingLM struct {
	tok *vocab.Tokenizer
	d   time.Duration
}

func (l violatingLM) VocabSize() int { return l.tok.Size() }
func (l violatingLM) NewSession() core.Session {
	return &violatingSession{lm: l, logits: make([]float32, l.tok.Size())}
}

type violatingSession struct {
	lm     violatingLM
	logits []float32
	fine   int // 1 + characters consumed after '|'; 0 before it
}

func (s *violatingSession) Append(tok int) error {
	if s.fine > 0 || (s.lm.tok.IsChar(tok) && s.lm.tok.Char(tok) == '|') {
		s.fine++
	}
	return nil
}

func (s *violatingSession) Logits() []float32 {
	time.Sleep(s.lm.d)
	const fine = "1,1,1,1,1\n"
	clear(s.logits)
	if n := s.fine - 1; n >= 0 && n < len(fine) {
		s.logits[s.lm.tok.ID(fine[n])] = 30
	} else if n >= len(fine) {
		s.logits[vocab.EOS] = 30
	}
	return s.logits
}

// TestRejectionDeadlineFreesBatcher: a served rejection request whose every
// sample violates would hold its batch for all 500 attempts. Its 50 ms
// deadline must end its lane within a token step, so a lejit request queued
// right behind it — in the next micro-batch of the one batcher — is served
// in well under one full rejection run (about 8 s here).
func TestRejectionDeadlineFreesBatcher(t *testing.T) {
	eng, rs, schema := testEngine(t, violatingLM{tok: vocab.Telemetry(), d: time.Millisecond})
	s, err := New(Config{
		Packs: testPacks(t, eng, rs, schema, 0), DefaultPack: "default",
		BatchWindow: time.Millisecond, MaxBatch: 1, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	rejection := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/impute", "application/json", strings.NewReader(
			`{"known": {"TotalIngress": [100], "Congestion": [0]}, "mode": "rejection", "timeout_ms": 50}`))
		if err != nil {
			t.Error(err)
			rejection <- 0
			return
		}
		resp.Body.Close()
		rejection <- resp.StatusCode
	}()
	waitFor(t, s, func(sn Snapshot) bool { return sn.Batches == 1 }) // the rejection lane is decoding

	start := time.Now()
	resp, data := postJSON(t, ts, "/v1/impute", `{"known": {"TotalIngress": [100], "Congestion": [0]}, "timeout_ms": 3000}`)
	if elapsed := time.Since(start); resp.StatusCode != http.StatusOK || elapsed > time.Second {
		t.Errorf("lejit request behind a timed-out rejection one: status %d after %v, want 200 within 1s (body %s)", resp.StatusCode, elapsed, data)
	}
	if code := <-rejection; code != http.StatusGatewayTimeout {
		t.Errorf("rejection request: status %d, want 504", code)
	}
}

// TestRetryAfterFromBatchCost: the 429's Retry-After is computed from the
// measured batch wall time, so a slow backlog yields a header above the 1 s
// floor.
func TestRetryAfterFromBatchCost(t *testing.T) {
	eng, rs, schema := testEngine(t, sleepLM{vocab: vocab.Telemetry().Size(), d: 40 * time.Millisecond})
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
	// One settled batch gives the router its mean batch cost.
	if resp, data := postJSON(t, ts, "/v1/impute", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, data)
	}
	codes := make(chan int, 2) // one per background request
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/impute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			codes <- 0
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go post() // decoding
	waitFor(t, s, func(sn Snapshot) bool { return sn.Batches == 2 })
	go post() // queued: the depth-1 queue is full
	waitFor(t, s, func(sn Snapshot) bool { return sn.QueueDepth == 1 })

	resp, data := postJSON(t, ts, "/v1/impute", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, data)
	}
	st := s.Router().Stats()
	got, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || got <= 1 {
		t.Errorf("Retry-After %q behind %d in flight at %.2fs per batch, want above 1", resp.Header.Get("Retry-After"), st.Inflight, st.BatchSeconds/float64(st.Batches))
	}
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("held request finished with %d, want 200", code)
		}
	}
}

// TestRetryAfterSecs pins the estimate: batches to drain the backlog times
// the mean settled batch (the batch window before any has settled), clamped
// to [1, 30] seconds.
func TestRetryAfterSecs(t *testing.T) {
	for _, c := range []struct {
		st   router.Stats
		want int64
	}{
		{router.Stats{Inflight: 256}, 1},
		{router.Stats{Inflight: 200, Batches: 10, BatchSeconds: 4}, 3}, // 7 batches × 0.4 s
		{router.Stats{Inflight: 200, Batches: 10, BatchSeconds: 100}, 30},
	} {
		if got := retryAfterSecs(c.st, 32, 2*time.Millisecond); got != c.want {
			t.Errorf("retryAfterSecs(%+v) = %d, want %d", c.st, got, c.want)
		}
	}
}

// TestRequestTimeout: a request with a 1ms deadline must return promptly
// with a timeout status even though the batch window alone exceeds it.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.BatchWindow = 50 * time.Millisecond })
	ts := httptest.NewServer(s)
	defer ts.Close()

	start := time.Now()
	resp, data := postJSON(t, ts, "/v1/impute", `{"known": {"TotalIngress": [100], "Congestion": [0]}, "timeout_ms": 1}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Status != "timeout" {
		t.Errorf("status field %q, want timeout", e.Status)
	}
	if elapsed > 2*time.Second {
		t.Errorf("timeout response took %v, want prompt return", elapsed)
	}
	waitFor(t, s, func(sn Snapshot) bool { return sn.Timeouts >= 1 })
}

// TestServeEndToEnd is the acceptance scenario: a real listener, ≥16
// concurrent impute requests, rule-compliant responses, matching metrics
// with mean batch size > 1, and a graceful drain on context cancellation
// (the SIGTERM path).
func TestServeEndToEnd(t *testing.T) {
	eng, rs, schema := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()})
	s, err := New(Config{
		Packs: testPacks(t, eng, rs, schema, 0), DefaultPack: "default",
		BatchWindow: 20 * time.Millisecond, MaxBatch: 8, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, l) }()
	base := "http://" + l.Addr().String()

	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"known": {"TotalIngress": [%d], "Congestion": [%d]}, "seed": %d}`, 60+i, i%2*10, i)
			resp, err := http.Post(base+"/v1/impute", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var dr DecodeResponse
			if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			// Every response must decode to a rule-compliant record.
			viol, err := rs.Violations(dr.Record)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if len(viol) > 0 {
				t.Errorf("request %d violates %v", i, viol)
				return
			}
			mu.Lock()
			ok++
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if ok != n {
		t.Fatalf("%d/%d requests succeeded", ok, n)
	}

	// The metrics endpoint must agree with what the clients saw, and the
	// batcher must actually have coalesced (mean batch size > 1).
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, fmt.Sprintf(`lejitd_requests_total{route="impute",pack="default",code="200"} %d`, n)) {
		t.Errorf("metrics do not report %d impute 200s:\n%s", n, text)
	}
	snap := s.Metrics().Snapshot()
	if snap.MeanBatchSize <= 1 {
		t.Errorf("mean batch size %.2f, want > 1 (batches=%d recs=%d)",
			snap.MeanBatchSize, snap.Batches, snap.BatchedRecs)
	}

	// Graceful drain: cancel the serve context while a request is in
	// flight; it must complete before Serve returns.
	late := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/impute", "application/json",
			strings.NewReader(`{"known": {"TotalIngress": [90], "Congestion": [0]}}`))
		if err != nil {
			late <- -1
			return
		}
		resp.Body.Close()
		late <- resp.StatusCode
	}()
	// Wait until the late request has been admitted before cancelling. A
	// fixed sleep flakes when the host is oversubscribed (e.g. the -race
	// suite) and the POST has not yet connected when the listener closes;
	// so does waiting on the inflight gauge, which the first wave's batch
	// still holds for a moment after its last response is written.
	waitFor(t, s, func(sn Snapshot) bool { return sn.Admitted > uint64(n) })
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	if code := <-late; code != http.StatusOK {
		t.Errorf("in-flight request during drain finished with %d, want 200", code)
	}

	// After drain the server refuses new work (if anything still answers).
	if resp, err := http.Post(base+"/v1/impute", "application/json", strings.NewReader(`{}`)); err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Error("drained server accepted new work")
		}
	}
}

// waitFor blocks until cond holds of a metrics snapshot, waking on counter
// mutations (Metrics.WaitUntil) rather than sleep-polling.
func waitFor(t *testing.T, s *Server, cond func(Snapshot) bool) {
	t.Helper()
	if !s.Metrics().WaitUntil(5*time.Second, cond) {
		t.Fatal("condition not reached within 5s")
	}
}

// TestServeDisconnectsStalledHeaders: a client that connects and never
// finishes its request headers is disconnected once readHeaderTimeout has
// passed, and a well-formed request on another connection is served while it
// stalls.
func TestServeDisconnectsStalledHeaders(t *testing.T) {
	old := readHeaderTimeout
	readHeaderTimeout = 200 * time.Millisecond
	t.Cleanup(func() { readHeaderTimeout = old })

	s := newTestServer(t, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, l) }()

	stalled, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	// A request line and one header, never the blank line that ends them.
	if _, err := io.WriteString(stalled, "POST /v1/impute HTTP/1.1\r\nHost: lejitd\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post("http://"+l.Addr().String()+"/v1/impute", "application/json",
		strings.NewReader(`{"known": {"TotalIngress": [100], "Congestion": [0]}, "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-formed request beside a stalled one: status %d", resp.StatusCode)
	}

	// The server must hang up on the stalled connection (EOF, or an error
	// reply before it); the test's own read deadline expiring instead means
	// the connection was left open.
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadAll(stalled)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled connection still open %v after its header deadline", 5*time.Second)
	}

	cancel()
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
}
