package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/rules"
	"repro/internal/server"
)

// window is what one measured window produced, before any checking.
type window struct {
	ops     []op
	lanes   []lane          // offline-synth only
	lag     []time.Duration // pacer lateness per arrival (open loops)
	elapsed time.Duration   // denominator of goodput_rps
}

// lane is one record of an offline-synth batch.
type lane struct {
	seed  int64
	ref   int             // index into env.refs, -1 when unchecked
	due   time.Duration   // DecodeRequests call, offset from window start
	slots []time.Duration // each slot emit; first is TTFT, last is completion
	text  strings.Builder // emitted slot texts in order
	res   core.Result
	err   error
}

// quiesce settles the process before a measured window: collect garbage left
// by set-up, then idle so the collector's background work and the server's
// timers are out of the way.
func quiesce() {
	runtime.GC()
	time.Sleep(time.Second)
}

// measure runs the env's workload for span. tr, when non-nil, records spans.
// Callers quiesce first.
func (e *env) measure(span time.Duration, tr *tracer) *window {
	ck := clock{t0: time.Now()}
	tr.begin(ck)
	switch e.workload {
	case wlSteady:
		return e.runOpen(ck, span, steadyRate, e.nproc, tr)
	case wlOverload:
		return e.runOpen(ck, span, overloadRate, overloadWorkers, tr)
	case wlOfflineSynt:
		return e.runSynth(ck, span, tr)
	default:
		return e.runMixed(ck, span, tr)
	}
}

// send performs one operation over the workload's transport: conn when the
// env listens on TCP, straight into the handler otherwise.
func (e *env) send(conn *tcpConn, ck clock, o *op) {
	if e.addr == "" {
		inproc(e.srv, ck, o)
		return
	}
	conn.addr = e.addr
	conn.do(ck, o)
}

// runOpen drives an open-loop Poisson window: over nproc keep-alive TCP
// connections when the env listens, straight into the handler otherwise.
func (e *env) runOpen(ck clock, span time.Duration, rate float64, workers int, tr *tracer) *window {
	sched := poissonSchedule(e.seed, rate, span)
	conns := make([]tcpConn, workers)
	ops, lag := openLoop(ck, sched, e.reqs[:len(sched)], workers, func(w int, o *op) {
		e.send(&conns[w], ck, o)
		tr.op(o)
	})
	elapsed := ck.now() // until the last operation had completed: the span, give or take the final arrival gap and drain
	for i := range conns {
		conns[i].close()
	}
	return &window{ops: ops, lag: lag, elapsed: elapsed}
}

// runMixed drives the closed-loop three-pack window with nproc clients over
// TCP; client 0 swaps its next request for a fincompliance reload every
// reloadEvery, alternating CATMAX 75 and 80.
func (e *env) runMixed(ck clock, span time.Duration, tr *tracer) *window {
	var reloads [2]request
	for i, text := range e.finTexts {
		body, _ := json.Marshal(server.ReloadRequest{Pack: pack.FinComplianceName, Rules: text})
		reloads[i] = request{path: "/v1/packs/reload", pack: pack.FinComplianceName, reload: true, text: i, ref: -1,
			body: body, wire: buildWire("/v1/packs/reload", body)}
	}
	nextReload, text := reloadEvery, 1 // first reload tightens to CATMAX 75
	next := func(c, k int, now time.Duration) *request {
		if c == 0 && now >= nextReload {
			r := &reloads[text]
			nextReload, text = nextReload+reloadEvery, 1-text
			return r
		}
		return &e.reqs[(k*e.nproc+c)%len(e.reqs)]
	}
	conns := make([]tcpConn, e.nproc)
	ops := closedLoop(ck, span, e.nproc, next, func(w int, o *op) {
		e.send(&conns[w], ck, o)
		tr.op(o)
	})
	elapsed := ck.now()
	for i := range conns {
		conns[i].close()
	}
	return &window{ops: ops, elapsed: elapsed}
}

// prepareSynth computes the solo references of the first refCount lanes.
func (e *env) prepareSynth() error {
	solo, err := e.tele.Engine.Clone()
	if err != nil {
		return err
	}
	for i := 0; i < refCount; i++ {
		line, err := soloLine(solo, e.tele, nil, core.MixSeed(e.seed, i))
		if err != nil {
			return err
		}
		e.refs = append(e.refs, line)
	}
	return nil
}

// synthBatch decodes one batch of synthLanes unconditional records whose
// seeds start at index from (of the seed stream base).
func (e *env) synthBatch(ck clock, base int64, from int, lanes []lane) error {
	reqs := make([]core.BatchRequest, len(lanes))
	for i := range lanes {
		la := &lanes[i]
		la.seed = core.MixSeed(base, from+i)
		reqs[i].Seed = &la.seed
		reqs[i].Ctx = core.WithEmit(context.Background(), func(slot int, text string) {
			la.slots = append(la.slots, ck.now())
			la.text.WriteString(text)
		})
	}
	due := ck.now()
	out, err := e.tele.Engine.DecodeRequests(context.Background(), reqs, e.nproc, 0, nil)
	if err != nil {
		return err
	}
	for i := range lanes {
		la := &lanes[i]
		la.due, la.res, la.err = due, out[i].Res, out[i].Err
	}
	return nil
}

func (e *env) warmupSynth() error {
	ck := clock{t0: time.Now()}
	for b := 0; b < warmupRequests/synthLanes; b++ {
		lanes := make([]lane, synthLanes)
		if err := e.synthBatch(ck, e.seed+1<<30, b*synthLanes, lanes); err != nil {
			return err
		}
	}
	return nil
}

// runSynth decodes back-to-back batches of synthLanes unconditional records
// until span has elapsed. No server, router or prefix cache is involved.
func (e *env) runSynth(ck clock, span time.Duration, tr *tracer) *window {
	w := &window{}
	for b := 0; ck.now() < span; b++ {
		lanes := make([]lane, synthLanes)
		for i := range lanes {
			lanes[i].ref = -1
			if g := b*synthLanes + i; g < refCount {
				lanes[i].ref = g
			}
		}
		start := ck.now()
		if err := e.synthBatch(ck, e.seed, b*synthLanes, lanes); err != nil {
			for i := range lanes {
				lanes[i].err = err
			}
		}
		tr.batch(b, start, ck.now(), lanes)
		w.lanes = append(w.lanes, lanes...)
	}
	w.elapsed = ck.now()
	return w
}

// reloadAck is one acknowledged reload, in order of sending. Index 0 is the
// pack's registration (acked before the window began).
type reloadAck struct {
	sent, acked time.Duration
	epoch       string
}

// reloadHistory extracts the acknowledged reloads from a window and teaches
// the env which rule set each new epoch stands for.
func (e *env) reloadHistory(ops []op) (hist []reloadAck, bad int) {
	hist = append(hist, reloadAck{sent: -1, acked: -1, epoch: e.finEpoch0})
	var rl []*op
	for i := range ops {
		if ops[i].req.reload {
			rl = append(rl, &ops[i])
		}
	}
	sort.Slice(rl, func(a, b int) bool { return rl[a].sent < rl[b].sent })
	for _, o := range rl {
		var rr server.ReloadResponse
		if o.err != nil || o.status != 200 || json.Unmarshal(o.body, &rr) != nil || rr.Epoch == "" {
			bad++
			continue
		}
		e.rulesets[pack.FinComplianceName][rr.Epoch] = e.finRules[o.req.text]
		hist = append(hist, reloadAck{sent: o.sent, acked: o.done, epoch: rr.Epoch})
	}
	return hist, bad
}

// allowedEpochs returns the epochs a fincompliance decode sent at `sent` and
// finished at `done` may carry: the one of the last reload acknowledged
// before it was sent, or of the next reload if that was already on its way
// before the decode finished.
func allowedEpochs(hist []reloadAck, sent, done time.Duration) []string {
	r := 0
	for i := range hist {
		if hist[i].acked < sent {
			r = i
		}
	}
	out := []string{hist[r].epoch}
	if r+1 < len(hist) && hist[r+1].sent < done {
		out = append(out, hist[r+1].epoch)
	}
	return out
}

// soloPass decodes n records of the workload's own kind (imputations of the
// prompt pool, or unconditional generations for offline-synth) one at a time
// on a private engine clone and returns the summed stats and the wall time.
// mk decorates the per-record context (lookahead, cache opt-out).
func (e *env) soloPass(n int, seedBase int64, mk func(context.Context) context.Context) (core.Stats, time.Duration, *core.Engine, error) {
	eng, err := e.tele.Engine.Clone()
	if err != nil {
		return core.Stats{}, 0, nil, err
	}
	var prompts []rules.Record
	if e.workload != wlOfflineSynt {
		prompts = e.telemetryPrompts()
	}
	var sum core.Stats
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ctx := mk(context.Background())
		rng := rand.New(rand.NewSource(core.MixSeed(seedBase, i)))
		var res core.Result
		if prompts == nil {
			res, err = eng.GenerateCtx(ctx, rng)
		} else {
			res, err = eng.ImputeCtx(ctx, prompts[i%len(prompts)], rng)
		}
		if err != nil {
			return sum, 0, nil, err
		}
		st := res.Stats
		sum.Tokens += st.Tokens
		sum.MaskedSteps += st.MaskedSteps
		sum.ForcedSteps += st.ForcedSteps
		sum.SolverChecks += st.SolverChecks
		sum.OracleQueries += st.OracleQueries
		sum.OracleFastPath += st.OracleFastPath
		sum.SpecAcceptedTokens += st.SpecAcceptedTokens
		sum.PrefixHitTokens += st.PrefixHitTokens
	}
	return sum, time.Since(t0), eng, nil
}
