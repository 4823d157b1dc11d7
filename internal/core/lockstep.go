package core

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/rules"
)

// This file implements the decode driver: every decode, of every method — a
// DecodeRequests batch, or a direct Decode (Impute, Generate) as its
// one-lane case — steps through one shared BatchSession, so each
// transformer weight block is streamed from memory once per token step (a
// GEMM) instead of once per record. The solver side stays strictly per-lane
// — each lane drives its own laneDecoder on an engine dedicated to it — so a
// record's sequence of solver probes and RNG draws, and therefore its
// output, does not depend on which records share its batch (enforced by
// tests).
//
// Within a group, a lane that fails mid-flight (context cancelled, NN
// context length exceeded, ...) is retired alone; its batch-mates keep
// stepping. A free-sampling lane whose sample ends is restarted in place
// from its prompt (ResetLane) when its method asks for another sample.

// acquireClone hands out an engine dedicated to one lane: a pooled clone
// when one is idle, else a new Clone. Either way the lane decodes with e's
// current program and solver budget, so a Set* call on e reaches clones
// pooled before it. Clones share the program and the LM weights; everything
// mutable is per-clone, so pooling only skips the fork, not any per-record
// state reset (Push/Pop handles that).
func (e *Engine) acquireClone() *Engine {
	e.poolMu.Lock()
	n := len(e.pool)
	if n == 0 {
		e.poolMu.Unlock()
		return e.clone()
	}
	c := e.pool[n-1]
	e.pool = e.pool[:n-1]
	e.poolMu.Unlock()
	c.program = e.program
	c.solver.MaxNodes, c.solver.Timeout = e.solver.MaxNodes, e.solver.Timeout
	return c
}

// releaseClone returns a lane engine to the pool for the next batch. The
// pool keeps every clone it is given: it holds at most the peak number of
// lanes ever in flight on the engine at once, which on the served path is at
// most the router's MaxBatch per pack epoch (DESIGN.md §9).
func (e *Engine) releaseClone(c *Engine) {
	e.poolMu.Lock()
	e.pool = append(e.pool, c)
	e.poolMu.Unlock()
}

// sessionBatch implements BatchSession over n plain Sessions by looping
// Append, for LMs that have no batched forward pass (pack.UniformLM, test
// LMs). Its lanes never use the prefix cache, which only a WrapNN
// transformer's *nn.BatchSession serves.
type sessionBatch struct {
	lm   LM
	sess []Session
	// ahead[l] marks a lane that consumed its token in a call a later lane
	// then failed: Sessions cannot be validated before they mutate, so the
	// driver's retry of the surviving lanes must not feed it again.
	ahead []bool
}

func newSessionBatch(lm LM, n int) *sessionBatch {
	b := &sessionBatch{lm: lm, sess: make([]Session, n), ahead: make([]bool, n)}
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
	}
	return nil
}

// Consume is AppendBatch: a Session has no way to take a token but Append.
func (b *sessionBatch) Consume(lanes, toks []int) error { return b.AppendBatch(lanes, toks) }

// Finish does nothing: a Session computes its logits in Append or on read.
func (b *sessionBatch) Finish([]int) {}

func (b *sessionBatch) Logits(lane int) []float32 { return b.sess[lane].Logits() }

// ResetLane gives lane a fresh Session.
func (b *sessionBatch) ResetLane(lane int) {
	b.sess[lane], b.ahead[lane] = b.lm.NewSession(), false
}

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

// releaseBatchSession returns a lane group's session to the free list, which
// keeps every session it is given; sessions that cannot be reset are dropped
// for the GC. A new session is made only when no idle one fits, that is when
// every session of its power-of-two size or larger is checked out, so with
// one DecodeRequests at a time the list holds at most workers sessions per
// size (DESIGN.md §9).
func (e *Engine) releaseBatchSession(bs BatchSession) {
	rs, ok := bs.(reusableBatchSession)
	if !ok {
		return
	}
	e.poolMu.Lock()
	e.sessions = append(e.sessions, rs)
	e.poolMu.Unlock()
}

// lsLane is one decode, resolved: its context already carries the
// request's prefix-cache override. rng is the caller's for a direct
// Impute/Generate/...; for a batch lane it is nil until the lane starts, and
// is then the lane engine's own RNG seeded with seed.
type lsLane struct {
	out    *BatchResult
	ctx    context.Context
	method Method
	known  rules.Record
	rng    *rand.Rand
	seed   int64
	plan   *promptPlan // nil → planned at lane start
	// eng is the engine dedicated to the lane until it settles: the driving
	// engine itself for a direct Impute/Generate, otherwise (nil until the
	// lane starts) a clone from the driving engine's pool.
	eng *Engine

	ld    *laneDecoder
	slot  int  // lane index in the group's BatchSession
	reads bool // whether the current step's choice reads the lane's logits
	tok   int  // token pending in the current step, -1 once the LM refused it
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
// of bs — prefix-cache warm start and snapshot capture for a lane that uses
// the cache — then streams the prompt's slots of a lane set up this far. It
// reports whether the lane has tokens to decode; a lane that failed or
// finished during set-up has its outcome recorded already.
func (e *Engine) startLane(bs BatchSession, la *lsLane) bool {
	if la.eng == nil {
		la.eng = e.acquireClone()
	}
	if la.rng == nil {
		la.rng = la.eng.seededRNG(la.seed)
	}
	if perr := guardLane(func() error {
		la.ld = la.eng.newLaneDecoder(la.ctx, la.method, la.known, la.rng, la.plan)
		if la.ld.done() {
			return nil
		}
		// A prefix-cache hit seeds the lane's KV block and position by
		// copying out of the shared snapshot; the laneDecoder has already
		// dropped the restored prompt from its feed queue. Snapshot capture
		// freezes a cold lane back out of the batch at the end of its prompt.
		// A lane uses the cache only on a WrapNN engine, whose sessions are
		// *nn.BatchSession; on any other session a hit is never claimed.
		if nbs, ok := bs.(*nn.BatchSession); ok && la.ld.useCache {
			if ws := la.ld.applyWarm(); ws != nil {
				if err := nbs.SeedLane(la.slot, ws); err != nil {
					return err
				}
			}
			la.ld.capture = func() *nn.Session { return nbs.CloneLane(la.slot) }
		}
		la.ld.emitPrompt()
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

// decodeLockStep is the decoding loop (paper Fig 1b) for a group of lanes
// sharing one BatchSession, writing each lane's outcome through its out
// pointer. Per token step:
//
//  1. Per lane, its method decides the next token. A guided lane's
//     character-level transition system (internal/transition, paper Fig 2)
//     asks the solver range-feasibility queries — "does a rule-compliant
//     completion exist in which this variable's value starts with these
//     digits?" — which perform the lookahead over unfixed suffix variables
//     for free, because the solver treats them as existentially quantified.
//     Admissible tokens keep their model logits; everything else is masked,
//     the remainder renormalized, and one token sampled. A free-sampling
//     lane samples among every character and EOS. Every lane's mask comes
//     first, then one Finish computes the logits of the lanes that sample,
//     then every lane chooses.
//  2. One forward pass feeds every lane its token.
//  3. Per lane, a guided value that terminated has its equality asserted,
//     activating/deactivating rules for later slots (dynamic partial
//     instantiation, §3 step ①–②); a free sample that ended is parsed and
//     judged, which finishes or restarts the lane.
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
	closing := make([]*lsLane, 0, len(lanes))
	reading := make([]int, 0, len(lanes))
	for len(lanes) > 0 {
		// Phase 1a, per lane: the step's mask, and whether choosing the
		// token reads the lane's logits — only a sample among two or more
		// tokens does (the BOS is always fed before the first one). Then one
		// Finish computes the logits of exactly those lanes: a prompt token,
		// a forced token and a lane that failed here never pay for the last
		// layer's tail. A panic in Finish leaves the shared session suspect,
		// as one in the forward does: every lane of the step fails.
		reading = reading[:0]
		for _, la := range lanes {
			err := guardLane(func() error {
				var merr error
				la.reads, merr = la.ld.mask()
				return merr
			})
			if err != nil {
				e.failLane(la, err)
			} else if la.reads {
				reading = append(reading, la.slot)
			}
		}
		if len(reading) > 0 {
			if err := guardLane(func() error { bs.Finish(reading); return nil }); err != nil {
				reusable = false
				for _, la := range lanes {
					if !la.ld.done() {
						e.failLane(la, err)
					}
				}
			}
		}

		// Phase 1b, per lane: the lane's next token. A free lane may finish
		// here, or restart and need its LM lane emptied. A token that closes
		// its lane's record is queued apart: nothing reads the logits after
		// it.
		stepLanes, stepToks, stepRefs, closing = stepLanes[:0], stepToks[:0], stepRefs[:0], closing[:0]
		for _, la := range lanes {
			if la.ld.done() {
				continue // failed in phase 1a
			}
			var logits []float32
			if la.reads {
				logits = bs.Logits(la.slot)
			}
			var tok int
			err := guardLane(func() error {
				var perr error
				tok, perr = la.ld.pick(logits)
				return perr
			})
			if err != nil {
				e.failLane(la, err)
				continue
			}
			if la.ld.done() {
				e.settle(la)
				continue
			}
			if la.ld.reset {
				la.ld.reset = false
				bs.ResetLane(la.slot)
			}
			la.tok = tok
			if la.ld.closes(tok) {
				closing = append(closing, la)
				continue
			}
			stepLanes = append(stepLanes, la.slot)
			stepToks = append(stepToks, tok)
			stepRefs = append(stepRefs, la)
		}
		nc := len(stepRefs)
		for _, la := range closing {
			stepLanes = append(stepLanes, la.slot)
			stepToks = append(stepToks, la.tok)
			stepRefs = append(stepRefs, la)
		}

		// Phase 2: one forward pass for the first nc lanes, and Consume for
		// the closing tokens after them. A *LaneError means the session
		// refused one lane and left the others as they were: retire that
		// lane — a free lane instead ends its sample — and retry the rest,
		// without the forward pass if it has already run.
		computed := false
		for len(stepLanes) > 0 {
			err := guardLane(func() error {
				if !computed {
					if err := bs.AppendBatch(stepLanes[:nc], stepToks[:nc]); err != nil {
						return err
					}
					computed = true
				}
				return bs.Consume(stepLanes[nc:], stepToks[nc:])
			})
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
			if perr := guardLane(func() error { la.ld.refuse(le); return nil }); perr != nil {
				e.failLane(la, perr)
			} else if la.ld.done() {
				e.settle(la)
			}
			la.tok = -1
			if bad < nc {
				nc--
			}
			stepLanes = append(stepLanes[:bad], stepLanes[bad+1:]...)
			stepToks = append(stepToks[:bad], stepToks[bad+1:]...)
			stepRefs = append(stepRefs[:bad], stepRefs[bad+1:]...)
		}

		// Phase 3, per lane: post-append bookkeeping (value pinning, record
		// assembly, judging an ended free sample). Lanes compact without
		// reordering: finished ones drop out, the rest keep their
		// BatchSession slot — a free lane whose refused token ended its
		// sample included.
		next := lanes[:0]
		for _, la := range lanes {
			if la.ld.done() {
				continue // settled during this step
			}
			if la.tok >= 0 {
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
			}
			next = append(next, la)
		}
		lanes = next
	}
	if reusable {
		e.releaseBatchSession(bs)
	}
}
