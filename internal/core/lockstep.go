package core

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"runtime"

	"repro/internal/nn"
	"repro/internal/rules"
)

// This file implements the decode driver: every guided decode — a
// DecodeRequests batch, or a direct Impute/Generate as its one-lane case —
// steps through one shared BatchSession, so each transformer weight block is
// streamed from memory once per token step (a GEMM) instead of once per
// record. The solver side stays strictly per-lane — each lane drives its own
// laneDecoder on an engine dedicated to it — so a record's sequence of
// solver probes and RNG draws, and therefore its output, does not depend on
// which records share its batch (enforced by tests).
//
// Records that carry a Decode override (the baselines) are not guided
// decodes and never enter this loop; DecodeRequests runs them per record
// (batch.go). Within a group, a lane that fails mid-flight (context
// cancelled, NN context length exceeded, ...) is retired alone; its
// batch-mates keep stepping.

// acquireClone hands out an engine dedicated to one lane, reusing a pooled
// clone when one is idle. Clones share the compiled rule formula and the LM
// weights; everything mutable is per-clone, so pooling only skips the
// construction cost, not any per-record state reset (Push/Pop handles that).
func (e *Engine) acquireClone() (*Engine, error) {
	e.poolMu.Lock()
	if n := len(e.pool); n > 0 {
		c := e.pool[n-1]
		e.pool = e.pool[:n-1]
		e.poolMu.Unlock()
		return c, nil
	}
	e.poolMu.Unlock()
	return e.Clone()
}

// releaseClone returns a lane engine to the pool for the next batch. The
// pool is bounded at max(2×NumCPU, observed batch demand): the CPU term
// keeps a one-time burst of unrelated lanes from permanently retaining every
// clone and its KV-cache scratch, while the demand term — the largest batch
// size DecodeRequests has actually seen (notePoolDemand) — stops a steady
// stream of large micro-batches on a small host from re-cloning most of its
// lanes every batch. Excess clones are dropped for the GC.
func (e *Engine) releaseClone(c *Engine) {
	e.poolMu.Lock()
	if len(e.pool) < e.poolLimit() {
		e.pool = append(e.pool, c)
	}
	e.poolMu.Unlock()
}

// poolLimit is the retention cap of the engine's free lists (see
// releaseClone). Callers hold poolMu.
func (e *Engine) poolLimit() int {
	return max(2*runtime.NumCPU(), e.poolDemand)
}

// notePoolDemand records that n lanes may need clones concurrently, raising
// the pool's retention cap (never lowering it — demand is a high-water mark).
func (e *Engine) notePoolDemand(n int) {
	e.poolMu.Lock()
	if n > e.poolDemand {
		e.poolDemand = n
	}
	e.poolMu.Unlock()
}

// prefixBatchSession is the optional BatchSession extension the prefix cache
// needs: seeding a fresh lane from a frozen solo session and freezing a lane
// back out as one. *nn.BatchSession implements it; a BatchLM whose sessions
// do not simply decodes cold (any unclaimed hit is released by finish).
type prefixBatchSession interface {
	SeedLane(lane int, src *nn.Session) error
	CloneLane(lane int) *nn.Session
}

// rewindBatchSession is the optional BatchSession extension speculative
// decoding needs: rewinding one lane to an earlier position and restoring
// its logits row in place. *nn.BatchSession implements it; lanes of a
// BatchLM whose sessions do not simply decode on the exact path. Lanes
// speculate privately between shared AppendBatch steps — a rollback only
// moves the lane's own ragged position, which the batched forward already
// handles, so batch-mates never desync.
type rewindBatchSession interface {
	RewindLane(lane, pos int, logits []float32) error
}

// sessionBatch implements BatchSession over n plain Sessions by looping
// Append, for LMs that have no batched forward pass (pack.UniformLM, test
// LMs). It implements neither prefixBatchSession nor rewindBatchSession, so
// its lanes decode cold and exact.
type sessionBatch struct {
	sess []Session
	pos  []int
	// ahead[l] marks a lane that consumed its token in a call a later lane
	// then failed: Sessions cannot be validated before they mutate, so the
	// driver's retry of the surviving lanes must not feed it again.
	ahead []bool
}

func newSessionBatch(lm LM, n int) *sessionBatch {
	b := &sessionBatch{sess: make([]Session, n), pos: make([]int, n), ahead: make([]bool, n)}
	for i := range b.sess {
		b.sess[i] = lm.NewSession()
	}
	return b
}

func (b *sessionBatch) AppendBatch(lanes, toks []int) error {
	for i, l := range lanes {
		if b.ahead[l] {
			b.ahead[l] = false
			continue
		}
		if err := b.sess[l].Append(toks[i]); err != nil {
			for _, done := range lanes[:i] {
				b.ahead[done] = true
			}
			return &nn.LaneError{Lane: l, Err: err}
		}
		b.pos[l]++
	}
	return nil
}

func (b *sessionBatch) Logits(lane int) []float32 { return b.sess[lane].Logits() }
func (b *sessionBatch) Len(lane int) int          { return b.pos[lane] }

// reusableBatchSession is a BatchSession decodeLockStep can keep for the
// next lane group: Reset must leave it as good as a new session with the
// same number of lanes. *nn.BatchSession is one.
type reusableBatchSession interface {
	BatchSession
	Lanes() int
	Reset()
}

// acquireBatchSession opens a session with at least n lanes for one lane
// group: the model's own batched forward pass when it has one — the
// smallest idle session of the engine's free list that fits, reset, or a
// new one with n rounded up to a power of two, so that it fits the next
// groups of about that size — and the Append-looping adapter otherwise.
// Lanes beyond n are never stepped and cost nothing per step.
func (e *Engine) acquireBatchSession(n int) BatchSession {
	blm, ok := e.cfg.LM.(BatchLM)
	if !ok {
		return newSessionBatch(e.cfg.LM, n)
	}
	e.poolMu.Lock()
	best := -1
	for i, s := range e.sessions {
		if l := s.Lanes(); l >= n && (best < 0 || l < e.sessions[best].Lanes()) {
			best = i
		}
	}
	if best >= 0 {
		s := e.sessions[best]
		last := len(e.sessions) - 1
		e.sessions[best], e.sessions[last] = e.sessions[last], nil
		e.sessions = e.sessions[:last]
		e.poolMu.Unlock()
		s.Reset()
		return s
	}
	e.poolMu.Unlock()
	return blm.NewBatchSession(1 << bits.Len(uint(n-1)))
}

// releaseBatchSession returns a lane group's session to the free list,
// which keeps as many sessions as releaseClone keeps clones (poolLimit);
// excess sessions, and sessions that cannot be reset, are dropped for the
// GC.
func (e *Engine) releaseBatchSession(bs BatchSession) {
	rs, ok := bs.(reusableBatchSession)
	if !ok {
		return
	}
	e.poolMu.Lock()
	if len(e.sessions) < e.poolLimit() {
		e.sessions = append(e.sessions, rs)
	}
	e.poolMu.Unlock()
}

// lsLane is one guided decode, resolved: its context already carries the
// request's prefix-cache and lookahead overrides. rng is the caller's for a
// direct Impute/Generate; for a batch lane it is nil until the lane starts,
// and is then the lane engine's own RNG seeded with seed.
type lsLane struct {
	out   *BatchResult
	ctx   context.Context
	known rules.Record
	rng   *rand.Rand
	seed  int64
	plan  *promptPlan // nil → planned at lane start
	// eng is the engine dedicated to the lane until it settles: the driving
	// engine itself for a direct Impute/Generate, otherwise (nil until the
	// lane starts) a clone from the driving engine's pool.
	eng *Engine

	ld   *laneDecoder
	slot int // lane index in the group's BatchSession
	tok  int // token pending in the current step
}

// settle records the lane's outcome and recycles its engine.
func (e *Engine) settle(la *lsLane) {
	la.ld.finish()
	la.out.Res, la.out.Err = la.ld.result()
	if la.eng != e {
		e.releaseClone(la.eng)
	}
}

// failLane retires la with err. A recovered panic (*PanicError) means the
// lane's engine is suspect — its solver stack may have been mid-mutation
// when the panic unwound — so a pooled clone is discarded instead of
// recycled, and even the finish bookkeeping is guarded. Clean failures
// settle normally.
func (e *Engine) failLane(la *lsLane, err error) {
	var pe *PanicError
	if !errors.As(err, &pe) {
		la.ld.fail(err)
		e.settle(la)
		return
	}
	func() {
		defer func() { recover() }()
		la.ld.fail(err)
	}()
	la.ld.finished = true
	la.out.Res, la.out.Err = la.ld.res, err
}

// startLane builds la's decoder on its engine and wires it to lane la.slot
// of bs: speculation when the session can rewind a lane, prefix-cache warm
// start and snapshot capture when it can seed and clone one. It reports
// whether the lane has tokens to decode; a lane that failed or finished
// during set-up has its outcome recorded already.
func (e *Engine) startLane(bs BatchSession, la *lsLane) bool {
	if la.eng == nil {
		eng, err := e.acquireClone()
		if err != nil {
			la.out.Err = err
			return false
		}
		la.eng = eng
	}
	if la.rng == nil {
		la.rng = la.eng.seededRNG(la.seed)
	}
	if perr := guardLane(func() error {
		la.ld = la.eng.newLaneDecoder(la.ctx, la.known, la.rng, la.plan)
		if la.ld.done() {
			return nil
		}
		if rbs, ok := bs.(rewindBatchSession); ok {
			la.ld.installRewind(
				func() int { return bs.Len(la.slot) },
				func(pos int, logits []float32) error { return rbs.RewindLane(la.slot, pos, logits) },
			)
		}
		pbs, ok := bs.(prefixBatchSession)
		if !ok {
			return nil
		}
		// A prefix-cache hit seeds the lane's KV block and position
		// directly; the laneDecoder has already dropped the restored
		// tokens from its feed queue. Snapshot capture copies the lane
		// back out of the batch at slot boundaries.
		if ws := la.ld.applyWarm(); ws != nil {
			err := pbs.SeedLane(la.slot, ws)
			ws.Release()
			if err != nil {
				return err
			}
			// The restored slots are complete: stream them now, as a cold
			// lane streams each prompt slot when its separator is fed, not
			// after the first slot's base build and probes.
			if la.ld.emit != nil {
				la.ld.flushEmit()
			}
		}
		la.ld.capture = func() *nn.Session { return pbs.CloneLane(la.slot) }
		return nil
	}); perr != nil {
		// Set-up panicked or the warm seed failed. A seeded-then-failed lane
		// cannot fall back to cold (its prompt queue is already truncated),
		// so the lane fails; a panic before the decoder existed leaves
		// nothing to finish.
		if la.ld == nil {
			la.out.Err = perr
		} else {
			e.failLane(la, perr)
		}
		return false
	}
	if la.ld.done() {
		e.settle(la)
		return false
	}
	return true
}

// decodeLockStep is the LeJIT decoding loop (paper Fig 1b) for a group of
// lanes sharing one BatchSession, writing each lane's outcome through its
// out pointer. Per token step:
//
//  1. Per lane, a character-level transition system (internal/transition,
//     paper Fig 2) asks the solver range-feasibility queries — "does a
//     rule-compliant completion exist in which this variable's value starts
//     with these digits?" — which perform the lookahead over unfixed suffix
//     variables for free, because the solver treats them as existentially
//     quantified. Admissible tokens keep their model logits; everything else
//     is masked, the remainder renormalized, and one token sampled.
//  2. One forward pass feeds every lane its token.
//  3. Per lane, a value that terminated has its equality asserted,
//     activating/deactivating rules for later slots (dynamic partial
//     instantiation, §3 step ①–②).
//
// Seeds, contexts, and all decoding decisions are per-lane, so results do
// not depend on which records share a group — a group of one included.
//
// The group's session comes from the engine's free list and goes back to it
// when every lane has settled — unless a forward pass panicked, which leaves
// the session unattributable and suspect, so it is dropped.
func (e *Engine) decodeLockStep(work []*lsLane) {
	bs := e.acquireBatchSession(len(work))
	reusable := true
	lanes := make([]*lsLane, 0, len(work))
	for slot, la := range work {
		la.slot = slot
		if e.startLane(bs, la) {
			lanes = append(lanes, la)
		}
	}

	stepLanes := make([]int, 0, len(lanes))
	stepToks := make([]int, 0, len(lanes))
	stepRefs := make([]*lsLane, 0, len(lanes))
	for len(lanes) > 0 {
		// Phase 1, per lane: solver probes + masked sampling decide the
		// lane's next token (prompt tokens need no logits; the BOS is always
		// fed before the first sampled token).
		stepLanes, stepToks, stepRefs = stepLanes[:0], stepToks[:0], stepRefs[:0]
		for _, la := range lanes {
			var logits []float32
			if bs.Len(la.slot) > 0 {
				logits = bs.Logits(la.slot)
			}
			var tok int
			err := guardLane(func() error {
				var nerr error
				tok, nerr = la.ld.next(logits)
				return nerr
			})
			if err != nil {
				e.failLane(la, err)
				continue
			}
			la.tok = tok
			stepLanes = append(stepLanes, la.slot)
			stepToks = append(stepToks, tok)
			stepRefs = append(stepRefs, la)
		}

		// Phase 2: one forward pass for every surviving lane. A *LaneError
		// means AppendBatch refused one lane and left the others as they
		// were: retire that lane and retry the rest.
		for len(stepLanes) > 0 {
			err := guardLane(func() error { return bs.AppendBatch(stepLanes, stepToks) })
			if err == nil {
				break
			}
			var le *nn.LaneError
			bad := -1
			if errors.As(err, &le) {
				for j, s := range stepLanes {
					if s == le.Lane {
						bad = j
						break
					}
				}
			}
			if bad < 0 {
				// Whole-batch failure (or a panic inside the forward pass,
				// which leaves the shared session unattributable and
				// suspect): no lane advanced; fail them all.
				var pe *PanicError
				if errors.As(err, &pe) {
					reusable = false
				}
				for _, la := range stepRefs {
					e.failLane(la, err)
				}
				stepRefs = stepRefs[:0]
				stepLanes = stepLanes[:0]
				break
			}
			la := stepRefs[bad]
			la.ld.fail(err)
			e.settle(la)
			stepLanes = append(stepLanes[:bad], stepLanes[bad+1:]...)
			stepToks = append(stepToks[:bad], stepToks[bad+1:]...)
			stepRefs = append(stepRefs[:bad], stepRefs[bad+1:]...)
		}

		// Phase 3, per lane: post-append bookkeeping (value pinning, record
		// assembly). Lanes compact without reordering: finished ones drop
		// out, the rest keep their BatchSession slot.
		next := lanes[:0]
		for _, la := range stepRefs {
			if err := guardLane(func() error { return la.ld.advance(la.tok) }); err != nil {
				var pe *PanicError
				if errors.As(err, &pe) {
					e.failLane(la, err)
					continue
				}
				la.ld.fail(err)
			}
			if la.ld.done() {
				e.settle(la)
				continue
			}
			next = append(next, la)
		}
		lanes = next
	}
	if reusable {
		e.releaseBatchSession(bs)
	}
}
