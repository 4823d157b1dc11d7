package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// parseSSE splits a complete event-stream body into events. The server only
// emits "event:" and "data:" lines, one data line per event.
func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var out []sseEvent
	for _, block := range strings.Split(body, "\n\n") {
		block = strings.TrimSpace(block)
		if block == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			default:
				t.Fatalf("unexpected SSE line %q", line)
			}
		}
		out = append(out, ev)
	}
	return out
}

// streamDecode POSTs one streaming request and returns the slot chunks in
// arrival order plus the terminal event.
func streamDecode(t *testing.T, ts *httptest.Server, path, body string) (chunks []StreamChunk, terminal sseEvent) {
	t.Helper()
	resp, data := postJSON(t, ts, path, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream transport status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	events := parseSSE(t, string(data))
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	for _, ev := range events[:len(events)-1] {
		if ev.name != "slot" {
			t.Fatalf("mid-stream event %q, want slot", ev.name)
		}
		var c StreamChunk
		if err := json.Unmarshal([]byte(ev.data), &c); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, c)
	}
	return chunks, events[len(events)-1]
}

// checkStreamedResponse asserts the terminal event is "done", its payload
// matches the unary response for the same request bit for bit, and the slot
// chunks concatenate to exactly the response line.
func checkStreamedResponse(t *testing.T, label string, chunks []StreamChunk, terminal sseEvent, unary []byte) {
	t.Helper()
	if terminal.name != "done" {
		t.Fatalf("%s: terminal event %q (%s), want done", label, terminal.name, terminal.data)
	}
	var got, want DecodeResponse
	if err := json.Unmarshal([]byte(terminal.data), &got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := json.Unmarshal(unary, &want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got.Line != want.Line {
		t.Errorf("%s: streamed line %q != unary %q", label, got.Line, want.Line)
	}
	if fmt.Sprint(got.Record) != fmt.Sprint(want.Record) {
		t.Errorf("%s: streamed record %v != unary %v", label, got.Record, want.Record)
	}
	if got.Epoch != want.Epoch || got.Pack != want.Pack {
		t.Errorf("%s: streamed pack/epoch %s/%s != unary %s/%s", label, got.Pack, got.Epoch, want.Pack, want.Epoch)
	}
	var sb strings.Builder
	for i, c := range chunks {
		if c.Slot != i {
			t.Errorf("%s: chunk %d carries slot %d (out of order or duplicated)", label, i, c.Slot)
		}
		sb.WriteString(c.Text)
	}
	if sb.String() != want.Line {
		t.Errorf("%s: concatenated chunks %q != line %q", label, sb.String(), want.Line)
	}
}

// TestStreamMatchesUnarySolo: on the per-record decode path, a streamed
// request emits one chunk per grammar slot, their concatenation equals the
// unary line for the same (prompt, seed), and the done event carries the
// identical DecodeResponse.
func TestStreamMatchesUnarySolo(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct{ path, known string }{
		{"/v1/impute", `"known": {"TotalIngress": [120], "Congestion": [10]}, `},
		{"/v1/impute", `"known": {"TotalIngress": [60], "Congestion": [0]}, `},
		{"/v1/generate", ""},
	}
	for ci, tc := range cases {
		for seed := 0; seed < 3; seed++ {
			label := fmt.Sprintf("case %d seed %d", ci, seed)
			unaryBody := fmt.Sprintf(`{%s"seed": %d}`, tc.known, seed)
			resp, unary := postJSON(t, ts, tc.path, unaryBody)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: unary status %d: %s", label, resp.StatusCode, unary)
			}
			streamBody := fmt.Sprintf(`{%s"seed": %d, "stream": true}`, tc.known, seed)
			chunks, terminal := streamDecode(t, ts, tc.path, streamBody)
			checkStreamedResponse(t, label, chunks, terminal, unary)
		}
	}
	snap := s.Metrics().Snapshot()
	if want := uint64(len(cases) * 3); snap.Streams != want {
		t.Errorf("streams counter %d, want %d", snap.Streams, want)
	}
}

// TestStreamMatchesUnaryLockStep: streamed and unary requests coalesced into
// lock-step batches (nn-backed engine, wide batch window) stay bit-identical
// per (prompt, seed) — chunks from concurrently decoding lanes never mix, in
// one lock-step group and when each wave is cut into four groups that stream
// at once.
func TestStreamMatchesUnaryLockStep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testStreamMatchesUnaryLockStep(t, workers)
		})
	}
}

func testStreamMatchesUnaryLockStep(t *testing.T, workers int) {
	s := newFaultServer(t, nil, func(c *Config) { c.Workers = workers })
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 8
	body := func(i int, stream bool) string {
		extra := ""
		if stream {
			extra = `, "stream": true`
		}
		return fmt.Sprintf(`{"known": {"TotalIngress": [%d], "Congestion": [%d]}, "seed": %d%s}`,
			60+10*i, i%3, 1000+i, extra)
	}
	// One concurrent unary wave, then one concurrent streamed wave: each
	// coalesces into a lock-step batch; responses must match pairwise.
	unary := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts, "/v1/impute", body(i, false))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("unary %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			unary[i] = data
		}(i)
	}
	wg.Wait()

	type streamed struct {
		chunks   []StreamChunk
		terminal sseEvent
	}
	outs := make([]streamed, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			chunks, terminal := streamDecode(t, ts, "/v1/impute", body(i, true))
			outs[i] = streamed{chunks, terminal}
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		checkStreamedResponse(t, fmt.Sprintf("lane %d", i), outs[i].chunks, outs[i].terminal, unary[i])
	}
	// The streamed wave really batched (the whole point of lock-step) and
	// TTFT was recorded for it.
	snap := s.Metrics().Snapshot()
	if snap.MeanBatchSize <= 1 {
		t.Errorf("mean batch size %.2f, want > 1", snap.MeanBatchSize)
	}
	if snap.Streams != n {
		t.Errorf("streams counter %d, want %d", snap.Streams, n)
	}
}

// TestStreamErrorEvent: a streamed request that fails decode-side surfaces an
// "error" event carrying the status the unary path would have answered — here
// an infeasible prompt (422), checked against the unary shape.
func TestStreamErrorEvent(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// TotalIngress 0 with Congestion 50 is infeasible: sum(I) == 0 forces
	// every I[t] to 0, violating max(I) >= BW/2 for congested records.
	_, unary := postJSON(t, ts, "/v1/impute", `{"known": {"TotalIngress": [0], "Congestion": [50]}, "seed": 1}`)
	var want ErrorResponse
	if err := json.Unmarshal(unary, &want); err != nil {
		t.Fatal(err)
	}
	if want.Status != "infeasible" {
		t.Fatalf("fixture not infeasible unary-side: %s", unary)
	}

	resp, data := postJSON(t, ts, "/v1/impute", `{"known": {"TotalIngress": [0], "Congestion": [50]}, "seed": 1, "stream": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream transport status %d", resp.StatusCode)
	}
	events := parseSSE(t, string(data))
	last := events[len(events)-1]
	if last.name != "error" {
		t.Fatalf("terminal event %q, want error (%s)", last.name, last.data)
	}
	var se StreamError
	if err := json.Unmarshal([]byte(last.data), &se); err != nil {
		t.Fatal(err)
	}
	if se.Code != http.StatusUnprocessableEntity || se.Status != "infeasible" {
		t.Errorf("stream error %d/%q, want 422/infeasible", se.Code, se.Status)
	}
	// The logical code lands in the request counters even though the wire
	// status was 200.
	waitFor(t, s, func(sn Snapshot) bool {
		return sn.Requests["impute"][http.StatusUnprocessableEntity] == 2
	})
}

// smallSendBufListener pins every accepted connection's send buffer at a few
// kilobytes, so a handler writing to a client that stops reading blocks
// after that much instead of after the megabyte loopback autotuning allows.
type smallSendBufListener struct{ net.Listener }

func (l smallSendBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4096)
	}
	return c, err
}

// TestStreamStalledReaderReleasesHandler: a raw TCP client sends a streaming
// request and never reads the response. Once both sockets' buffers fill, the
// next event's write must fail by streamWriteTimeout, which ends the stream:
// the handler returns (counted as 408) instead of holding its goroutine and
// connection for as long as the client stays connected.
func TestStreamStalledReaderReleasesHandler(t *testing.T) {
	old := streamWriteTimeout
	streamWriteTimeout = 200 * time.Millisecond
	t.Cleanup(func() { streamWriteTimeout = old })

	// 4000 slots stream about 200 KB of events, far past both buffers.
	schema := rules.MustSchema(
		rules.Field{Name: "A", Kind: rules.Scalar, Lo: 0, Hi: 9},
		rules.Field{Name: "V", Kind: rules.Vector, Len: 4000, Lo: 0, Hi: 99},
	)
	slots, err := core.TelemetryGrammar(schema, []string{"A"}, "V")
	if err != nil {
		t.Fatal(err)
	}
	tok := vocab.Telemetry()
	eng, err := core.NewEngine(core.Config{LM: uniformLM{vocab: tok.Size()}, Tok: tok, Schema: schema, Slots: slots})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Packs: testPacks(t, eng, nil, schema, 0), DefaultPack: "default"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewUnstartedServer(s)
	ts.Listener = smallSendBufListener{ts.Listener}
	ts.Start()
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4096)
	body := `{"known": {"A": [3]}, "seed": 1, "stream": true}`
	fmt.Fprintf(conn, "POST /v1/impute HTTP/1.1\r\nHost: lejitd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)

	start := time.Now()
	if !s.Metrics().WaitUntil(5*time.Second, func(sn Snapshot) bool { return sn.Requests["impute"][statusStreamAbandoned] == 1 }) {
		t.Fatalf("the handler of a client that never reads is still writing after %v (requests %v)", time.Since(start), s.Metrics().Snapshot().Requests)
	}
}

// TestStreamTTFTRecorded: the TTFT histogram counts streamed requests only.
func TestStreamTTFTRecorded(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	postJSON(t, ts, "/v1/impute", `{"known": {"TotalIngress": [100], "Congestion": [0]}, "seed": 3}`)
	streamDecode(t, ts, "/v1/impute", `{"known": {"TotalIngress": [100], "Congestion": [0]}, "seed": 3, "stream": true}`)

	_, data := getBody(t, ts.URL+"/metrics")
	text := string(data)
	if !strings.Contains(text, "lejitd_stream_ttft_seconds_count 1") {
		t.Errorf("metrics missing single-stream TTFT count:\n%s", grepMetric(text, "lejitd_stream_ttft"))
	}
	if !strings.Contains(text, "lejitd_streams_total 1") {
		t.Errorf("metrics missing streams total:\n%s", grepMetric(text, "lejitd_streams"))
	}
}

func grepMetric(text, prefix string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
