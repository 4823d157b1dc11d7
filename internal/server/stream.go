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

// streamWriteTimeout bounds each SSE write and its flush: a client that
// stops reading fails the write once its socket buffers fill, which ends the
// stream and frees the handler goroutine and its connection instead of
// pinning them forever. A var only so the stalled-reader test can shorten
// it.
var streamWriteTimeout = 10 * time.Second

// statusStreamAbandoned is the logical status of a stream whose client stopped
// reading: the request timed out on the client's side of the connection.
const statusStreamAbandoned = http.StatusRequestTimeout

// streamDecodeResponse writes one decode as Server-Sent Events: a "slot"
// event per completed slot while the decode runs, then a terminal "done"
// event with the full DecodeResponse (or an "error" event). Returns the
// logical status code — what the unary path would have answered, or 408 when
// a write failed — for the request counter; the wire status is 200 as soon
// as the stream opens.
func (s *Server) streamDecodeResponse(w http.ResponseWriter, ctx context.Context, pk *pack.Compiled, j *router.Job, chunks <-chan StreamChunk) int {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.Flush() // if the connection is gone, the first event's write fails too
	s.metrics.countStream()

	first := true
	// event writes and flushes one event under a fresh write deadline. A
	// writer that takes no deadlines (a test recorder) writes without one.
	event := func(name string, data any) error {
		buf, _ := json.Marshal(data)
		_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, buf); err != nil {
			return err
		}
		return rc.Flush()
	}
	slot := func(c StreamChunk) error {
		if first {
			first = false
			s.metrics.observeTTFT(time.Since(j.Start).Seconds())
		}
		return event("slot", c)
	}
	finish := func(res router.Result) int {
		// Every emit happened before the result was delivered (same decoding
		// goroutine), so the remaining chunks are already buffered: drain
		// them before the terminal event.
		for {
			select {
			case c := <-chunks:
				if slot(c) != nil {
					return statusStreamAbandoned
				}
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
			if slot(c) != nil {
				return statusStreamAbandoned
			}
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
