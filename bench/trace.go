package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// spanRec is one recorded span. Spans of one operation share Req; Parent is
// the ID of the span that caused this one (-1 for a root).
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run is spelled.
type tracer struct {
	base time.Time // origin of every span time
	mu   sync.Mutex
	off  time.Duration // current window's start, relative to base
	recs []spanRec
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin aligns the tracer with a measured window's clock.
func (t *tracer) begin(ck clock) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.off = ck.t0.Sub(t.base)
	t.mu.Unlock()
}

// add appends one span whose times are offsets within the current window.
// The caller holds t.mu.
func (t *tracer) add(name string, req, parent int, start, end time.Duration) int {
	id := len(t.recs)
	t.recs = append(t.recs, spanRec{ID: id, Parent: parent, Req: req, Name: name,
		Start: (t.off + start).Microseconds(), End: (t.off + end).Microseconds()})
	return id
}

// op records the spans of one finished operation: client.request from due
// time to last byte, and below it the wait for a free connection, the wait
// for the first slot event, and the rest of the response.
func (t *tracer) op(o *op) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if o.req.reload {
		t.add("bench.reload", o.idx, -1, o.sent, o.done)
		return
	}
	root := t.add("client.request", o.idx, -1, o.due, o.done)
	t.add("client.conn_wait", o.idx, root, o.due, o.sent)
	if len(o.slots) > 0 {
		t.add("client.first_slot", o.idx, root, o.sent, o.slots[0])
		t.add("client.done", o.idx, root, o.slots[0], o.done)
	} else {
		t.add("client.done", o.idx, root, o.sent, o.done)
	}
}

// batch records one offline DecodeRequests call and, below it, each lane up
// to its first and last emit.
func (t *tracer) batch(b int, start, end time.Duration, lanes []lane) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.add("core.decode_requests", b, -1, start, end)
	for i := range lanes {
		sl := lanes[i].slots
		if len(sl) == 0 {
			continue
		}
		req := b*len(lanes) + i
		t.add("client.first_slot", req, root, start, sl[0])
		t.add("client.done", req, root, sl[0], sl[len(sl)-1])
	}
}

// probe runs one layer probe inside a span of its own.
func (t *tracer) probe(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Since(t.base)
	fn()
	end := time.Since(t.base)
	t.mu.Lock()
	t.off = 0
	t.add("probe."+name, -1, -1, start, end)
	t.mu.Unlock()
}

// write dumps the spans with the run header to path.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(map[string]any{"header": header, "spans": t.recs})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sampler polls the router's load gauges at 10 Hz during a traced window.
type sampler struct {
	stop, done       chan struct{}
	queued, inflight []float64
}

func startSampler(load func() (queued, inflight int)) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				q, in := load()
				s.queued = append(s.queued, float64(q))
				s.inflight = append(s.inflight, float64(in))
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for its goroutine.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// counters is the set of cumulative counts read before and after a traced
// window; the per-layer window metrics are their differences.
type counters struct {
	snap               server.Snapshot
	latSum, latCount   float64 // lejitd_request_duration_seconds
	ttftSum, ttftCount float64 // lejitd_stream_ttft_seconds
	cpu                time.Duration
	gcPause            time.Duration
	heapInuse          uint64
	kernelPar          uint64
	kernelSer          uint64
}

func (e *env) readCounters() counters {
	var c counters
	if e.srv != nil {
		c.snap = e.srv.Metrics().Snapshot()
		var buf bytes.Buffer
		e.srv.Metrics().WritePrometheus(&buf)
		for _, line := range strings.Split(buf.String(), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			switch name {
			case "lejitd_request_duration_seconds_sum":
				c.latSum = v
			case "lejitd_request_duration_seconds_count":
				c.latCount = v
			case "lejitd_stream_ttft_seconds_sum":
				c.ttftSum = v
			case "lejitd_stream_ttft_seconds_count":
				c.ttftCount = v
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.gcPause, c.heapInuse = time.Duration(m.PauseTotalNs), m.HeapInuse
	c.kernelPar, c.kernelSer = e.model.KernelOps()
	return c
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
