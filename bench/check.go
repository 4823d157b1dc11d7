package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/pack"
	"repro/internal/server"
)

// tally is a window after parsing and checking: the counts and samples every
// metric is computed from.
type tally struct {
	attempted int
	good      int         // succeeded and passed every check
	shed      map[int]int // overload only: well-formed 429/503/504 answers
	failed    int         // wrong outcomes: transport errors, unexpected statuses, failed checks
	reasons   map[string]int

	lat, ttft   []float64 // ms, good operations (ttft: streamed ones)
	gaps        []float64 // ms between consecutive slot events of good streamed operations
	connWait    []float64 // ms from due to send
	rejectLat   []float64 // ms, shed operations
	reloadLat   []float64 // ms, acknowledged reloads
	refsChecked int

	tokens, solverChecks uint64 // summed from response stats
	batchSum             int    // summed response batch_size
}

func (t *tally) fail(reason string) {
	t.failed++
	t.reasons[reason]++
}

// sseEvents splits a raw event stream into (event, data) pairs.
func sseEvents(body []byte) [][2]string {
	var out [][2]string
	var name, data string
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && name != "":
			out = append(out, [2]string{name, data})
			name, data = "", ""
		}
	}
	return out
}

// parseStream reduces an event stream to its logical status, the
// concatenated slot texts and the terminal response.
func parseStream(body []byte) (code int, concat string, dr *server.DecodeResponse, err error) {
	var b strings.Builder
	for _, ev := range sseEvents(body) {
		switch ev[0] {
		case "slot":
			var c server.StreamChunk
			if err := json.Unmarshal([]byte(ev[1]), &c); err != nil {
				return 0, "", nil, err
			}
			b.WriteString(c.Text)
		case "done":
			dr = &server.DecodeResponse{}
			if err := json.Unmarshal([]byte(ev[1]), dr); err != nil {
				return 0, "", nil, err
			}
			code = http.StatusOK
		case "error":
			var se server.StreamError
			if err := json.Unmarshal([]byte(ev[1]), &se); err != nil {
				return 0, "", nil, err
			}
			code = se.Code
		}
	}
	if code == 0 {
		return 0, "", nil, fmt.Errorf("event stream without a terminal event")
	}
	return code, b.String(), dr, nil
}

func isShed(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// evaluate parses every operation of a window and applies the correctness
// gate. Each 200 must be compliant, pass a client-side Violations re-check
// against the rule set of the epoch it reports, concatenate (when streamed)
// to its line, equal the solo reference when it is one of the first refCount
// requests, and carry an epoch no acknowledged reload had already replaced.
func (e *env) evaluate(w *window) *tally {
	t := &tally{shed: map[int]int{}, reasons: map[string]int{}}
	if e.workload == wlOfflineSynt {
		e.evaluateLanes(w, t)
		return t
	}
	var hist []reloadAck
	if e.workload == wlMixedReload {
		var bad int
		hist, bad = e.reloadHistory(w.ops)
		for i := 0; i < bad; i++ {
			t.fail("reload_failed")
		}
	}
	for i := range w.ops {
		o := &w.ops[i]
		t.attempted++
		t.connWait = append(t.connWait, ms(o.sent-o.due))
		lat := ms(o.done - o.due)
		if o.req.reload {
			if o.err == nil && o.status == http.StatusOK {
				t.good++
				t.lat = append(t.lat, lat)
				t.reloadLat = append(t.reloadLat, ms(o.done-o.sent))
			} // failures were booked from the history above
			continue
		}
		if o.err != nil {
			t.fail("transport")
			continue
		}
		code, concat := o.status, ""
		var dr *server.DecodeResponse
		streamed := o.ctype == "text/event-stream"
		if streamed {
			var err error
			if code, concat, dr, err = parseStream(o.body); err != nil {
				t.fail("bad_stream")
				continue
			}
		} else if code == http.StatusOK {
			dr = &server.DecodeResponse{}
			if err := json.Unmarshal(o.body, dr); err != nil {
				t.fail("bad_json")
				continue
			}
		}
		if code != http.StatusOK {
			var er server.ErrorResponse
			if e.workload == wlOverload && isShed(code) && (streamed || json.Unmarshal(o.body, &er) == nil) {
				t.shed[code]++
				t.rejectLat = append(t.rejectLat, lat)
			} else {
				t.fail(fmt.Sprintf("status_%d", code))
			}
			continue
		}
		if streamed != o.req.stream {
			t.fail("wrong_content_type")
			continue
		}
		if reason := e.checkResponse(o, dr, streamed, concat, hist, t); reason != "" {
			t.fail(reason)
			continue
		}
		t.good++
		t.lat = append(t.lat, lat)
		t.tokens += uint64(dr.Stats.Tokens)
		t.solverChecks += dr.Stats.SolverChecks
		t.batchSum += dr.BatchSize
		if streamed && len(o.slots) > 0 {
			t.ttft = append(t.ttft, ms(o.slots[0]-o.due))
			for j := 1; j < len(o.slots); j++ {
				t.gaps = append(t.gaps, ms(o.slots[j]-o.slots[j-1]))
			}
		}
	}
	return t
}

// checkResponse applies the per-response checks and returns the failure
// reason, "" when the response is good.
func (e *env) checkResponse(o *op, dr *server.DecodeResponse, streamed bool, concat string, hist []reloadAck, t *tally) string {
	if !dr.Compliant || len(dr.Violations) > 0 {
		return "not_compliant"
	}
	rs, known := e.rulesets[o.req.pack][dr.Epoch]
	if dr.Pack != o.req.pack || !known {
		return "unknown_epoch"
	}
	if rs != nil {
		if v, err := rs.Violations(dr.Record); err != nil || len(v) > 0 {
			return "violates_epoch_rules"
		}
	}
	if streamed {
		if len(o.slots) == 0 {
			return "stream_without_slots"
		}
		if concat != dr.Line {
			return "stream_concat_mismatch"
		}
	}
	if o.req.ref >= 0 {
		t.refsChecked++
		if dr.Line != e.refs[o.req.ref] {
			return "differs_from_solo_reference"
		}
	}
	if o.req.pack == pack.FinComplianceName && hist != nil {
		ok := false
		for _, ep := range allowedEpochs(hist, o.sent, o.done) {
			ok = ok || ep == dr.Epoch
		}
		if !ok {
			return "stale_epoch"
		}
	}
	return ""
}

// evaluateLanes is evaluate for offline-synth: every lane must decode without
// error, satisfy the synthesis rules, emit slot texts that concatenate to its
// rendered line, and (first refCount lanes) equal the solo reference.
func (e *env) evaluateLanes(w *window, t *tally) {
	for i := range w.lanes {
		la := &w.lanes[i]
		t.attempted++
		if la.err != nil {
			t.fail("decode_error")
			continue
		}
		line, err := e.tele.FormatRecord(la.res.Rec)
		if err != nil {
			t.fail("bad_record")
			continue
		}
		if v, err := e.tele.Rules.Violations(la.res.Rec); err != nil || len(v) > 0 {
			t.fail("violates_epoch_rules")
			continue
		}
		if la.text.String() != line {
			t.fail("stream_concat_mismatch")
			continue
		}
		if la.ref >= 0 {
			t.refsChecked++
			if line != e.refs[la.ref] {
				t.fail("differs_from_solo_reference")
				continue
			}
		}
		t.good++
		t.lat = append(t.lat, ms(la.slots[len(la.slots)-1]-la.due))
		t.ttft = append(t.ttft, ms(la.slots[0]-la.due))
		for j := 1; j < len(la.slots); j++ {
			t.gaps = append(t.gaps, ms(la.slots[j]-la.slots[j-1]))
		}
		t.tokens += uint64(la.res.Stats.Tokens)
		t.solverChecks += la.res.Stats.SolverChecks
		t.batchSum += synthLanes
	}
}

// e2e computes the five end-to-end metrics of a window.
func (t *tally) e2e(elapsed time.Duration) map[string]float64 {
	return map[string]float64{
		"latency_p50_ms": median(t.lat),
		"ttft_p50_ms":    median(t.ttft),
		"goodput_rps":    float64(t.good) / elapsed.Seconds(),
		"success_share":  float64(t.good) / float64(max(t.attempted, 1)),
	}
}
