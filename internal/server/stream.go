package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/pack"
	"repro/internal/router"
)

// StreamChunk is one SSE "slot" event: a completed grammar slot's rendered
// text (digits plus trailing separator), sent as soon as the decode has
// proven it exact. Chunks arrive in slot order and concatenate to exactly the
// unary response's line field.
type StreamChunk struct {
	Slot int    `json:"slot"`
	Text string `json:"text"`
}

// StreamError is the data of an SSE "error" event — the streaming shape of
// ErrorResponse, carrying the HTTP status the request would have gotten
// unary. The transport status is already 200 by the time an error surfaces.
type StreamError struct {
	Code   int    `json:"code"`
	Error  string `json:"error"`
	Status string `json:"status,omitempty"`
}

// streamDecodeResponse writes one decode as Server-Sent Events: a "slot"
// event per completed slot while the decode runs, then a terminal "done"
// event with the full DecodeResponse (or an "error" event). Returns the
// logical status code — what the unary path would have answered — for the
// request counter; the wire status is 200 as soon as the stream opens.
func (s *Server) streamDecodeResponse(w http.ResponseWriter, ctx context.Context, pk *pack.Compiled, j *router.Job, chunks <-chan StreamChunk) int {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()
	s.metrics.countStream()

	first := true
	event := func(name string, data any) {
		buf, _ := json.Marshal(data)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, buf)
		flush()
	}
	slot := func(c StreamChunk) {
		if first {
			first = false
			s.metrics.observeTTFT(time.Since(j.Start).Seconds())
		}
		event("slot", c)
	}
	finish := func(res router.Result) int {
		// Every emit happened before the result was delivered (same decoding
		// goroutine), so the remaining chunks are already buffered: drain
		// them before the terminal event.
		for {
			select {
			case c := <-chunks:
				slot(c)
				continue
			default:
			}
			break
		}
		s.metrics.observeLatency(time.Since(j.Start).Seconds())
		o := s.buildDecodeOutcome(pk, res)
		if o.code != http.StatusOK {
			event("error", StreamError{Code: o.code, Error: o.errMsg, Status: o.status})
			return o.code
		}
		event("done", o.body)
		return http.StatusOK
	}

	for {
		select {
		case c := <-chunks:
			slot(c)
		case res := <-j.Resp:
			return finish(res)
		case <-ctx.Done():
			// The job may still be queued or decoding; its context is
			// cancelled, so the batcher abandons it and nobody reads Resp.
			s.metrics.observeLatency(time.Since(j.Start).Seconds())
			s.metrics.countTimeout()
			event("error", StreamError{Code: http.StatusGatewayTimeout, Error: "deadline exceeded", Status: "timeout"})
			return http.StatusGatewayTimeout
		}
	}
}
