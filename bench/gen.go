package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// request is one prepared operation: the raw HTTP/1.1 bytes for the socket
// path, the bare body for the in-process path, and what the checks need to
// know about it. Everything is marshalled before the measured window.
type request struct {
	wire   []byte // full HTTP/1.1 request (TCP workloads)
	body   []byte // JSON body (in-process workload)
	path   string
	pack   string
	stream bool
	reload bool // POST /v1/packs/reload rather than a decode
	ref    int  // index into the run's reference lines, -1 when unchecked
	text   int  // reload only: which rule text was sent
}

// op is one attempted operation's raw outcome. The in-window path only stamps
// times and keeps bytes; parsing and the correctness checks run after the
// window so they never compete with the system under test for a core.
type op struct {
	req *request
	idx int // operation index within the window (span request id)
	// Offsets from the window start. due is when the operation was supposed
	// to start (its Poisson arrival in an open loop, the moment the client
	// became free in a closed loop); latency is charged from due.
	due, sent, done time.Duration
	slots           []time.Duration // arrival of each SSE slot event; the first is the TTFT instant
	status          int             // wire status; 0 on a transport error
	ctype           string
	body            []byte
	err             error
}

// clock stamps offsets from one window's start.
type clock struct{ t0 time.Time }

func (c clock) now() time.Duration { return time.Since(c.t0) }

// buildWire renders the HTTP/1.1 request once, so the hot path is a single
// Write of prepared bytes.
func buildWire(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	b.Write(body)
	return b.Bytes()
}

// tcpConn is one keep-alive loopback connection driven by one goroutine: a
// prepared request is written, the response parsed with http.ReadResponse. No
// net/http client machinery (and none of its goroutines) sits in the timed
// path.
type tcpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	sse  *bufio.Reader
}

func (t *tcpConn) close() {
	if t.c != nil {
		t.c.Close()
		t.c = nil
	}
}

// do performs one request and fills o (sent, slots, done, status,
// body, err). A transport error closes the connection; the next call redials.
func (t *tcpConn) do(ck clock, o *op) {
	if t.c == nil {
		c, err := net.Dial("tcp", t.addr)
		if err != nil {
			o.err, o.done = err, ck.now()
			return
		}
		t.c, t.br = c, bufio.NewReaderSize(c, 16<<10)
	}
	o.sent = ck.now()
	if _, err := t.c.Write(o.req.wire); err != nil {
		o.err, o.done = err, ck.now()
		t.close()
		return
	}
	resp, err := http.ReadResponse(t.br, nil)
	if err != nil {
		o.err, o.done = err, ck.now()
		t.close()
		return
	}
	o.status, o.ctype = resp.StatusCode, resp.Header.Get("Content-Type")
	if o.ctype == "text/event-stream" {
		if t.sse == nil {
			t.sse = bufio.NewReaderSize(resp.Body, 4<<10)
		} else {
			t.sse.Reset(resp.Body)
		}
		o.body, o.slots, o.err = readSSE(t.sse, ck.now)
	} else {
		o.body, o.err = io.ReadAll(resp.Body)
	}
	o.done = ck.now()
	resp.Body.Close()
	if o.err != nil || resp.Close {
		t.close()
	}
}

var slotEventPrefix = []byte("event: slot")

// readSSE reads an event stream to EOF, keeping the raw bytes for the
// post-window parse and stamping now() when each "event: slot" header line
// arrives — the first stamp is the time-to-first-token instant.
func readSSE(r *bufio.Reader, now func() time.Duration) (body []byte, slots []time.Duration, err error) {
	for {
		line, rerr := r.ReadSlice('\n')
		if bytes.HasPrefix(line, slotEventPrefix) {
			slots = append(slots, now())
		}
		body = append(body, line...)
		if rerr == io.EOF {
			return body, slots, nil
		}
		if rerr != nil && rerr != bufio.ErrBufferFull {
			return body, slots, rerr
		}
	}
}

// recWriter is the in-process response sink: an http.ResponseWriter and
// http.Flusher that records status, body and the arrival of each SSE slot
// event (the server issues one Write per event).
type recWriter struct {
	ck     clock
	hdr    http.Header
	status int
	buf    bytes.Buffer
	slots  []time.Duration
}

func (w *recWriter) Header() http.Header { return w.hdr }
func (w *recWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *recWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if bytes.HasPrefix(p, slotEventPrefix) {
		w.slots = append(w.slots, w.ck.now())
	}
	return w.buf.Write(p)
}
func (w *recWriter) Flush() {}

// inproc fires one request straight into the handler: no socket, no net/http
// server or client goroutines.
func inproc(h http.Handler, ck clock, o *op) {
	r, err := http.NewRequest(http.MethodPost, o.req.path, bytes.NewReader(o.req.body))
	if err != nil {
		o.err, o.done = err, ck.now()
		return
	}
	w := &recWriter{ck: ck, hdr: http.Header{}}
	o.sent = ck.now()
	h.ServeHTTP(w, r)
	o.done = ck.now()
	o.status, o.ctype, o.body, o.slots = w.status, w.hdr.Get("Content-Type"), w.buf.Bytes(), w.slots
}

// openLoop offers reqs[i] at sched[i] regardless of how earlier requests
// fared. A single pacing goroutine sleeps to each due time, records how late
// it woke (lag) and hands the index to one of `workers` goroutines over a
// channel sized for the whole schedule, so the pacer itself never blocks on
// the system under test. fire must fill everything in the op except due.
func openLoop(ck clock, sched []time.Duration, reqs []request, workers int, fire func(worker int, o *op)) (ops []op, lag []time.Duration) {
	ops = make([]op, len(sched))
	lag = make([]time.Duration, len(sched))
	ch := make(chan int, len(sched)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ch {
				ops[i].idx = i
				fire(w, &ops[i])
			}
		}(w)
	}
	for i, due := range sched {
		if d := due - ck.now(); d > 0 {
			time.Sleep(d)
		}
		lag[i] = ck.now() - due
		ops[i].req, ops[i].due = &reqs[i], due
		ch <- i
	}
	close(ch)
	wg.Wait()
	return ops, lag
}

// closedLoop runs `clients` goroutines that each issue their next request the
// moment the previous one completed, until span has elapsed. next picks the
// k-th request of client c (and may substitute a reload).
func closedLoop(ck clock, span time.Duration, clients int, next func(c, k int, now time.Duration) *request, fire func(worker int, o *op)) []op {
	per := make([][]op, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				now := ck.now()
				if now >= span {
					return
				}
				o := op{req: next(c, k, now), idx: k*clients + c, due: now}
				fire(c, &o)
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	var ops []op
	for _, p := range per {
		ops = append(ops, p...)
	}
	return ops
}
