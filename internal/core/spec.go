package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/prefixcache"
	"repro/internal/smt"
	"repro/internal/transition"
)

// This file implements speculative constrained decoding (DESIGN.md §13):
// amortizing the solver oracle across a k-token lookahead window. While a
// window is open the lane decodes on the interval fast path and grammar
// masks alone — probes neither side can answer exactly are journaled and
// assumed feasible — then the whole window is validated against the solver
// at once. Validation certifies most deferred probes with a single Check
// (a model of the full assertion stack is a model of every probe-time
// prefix of it); the stragglers are re-checked exactly against their own
// probe-time stack rebuilt from the journal. The first probe proven
// infeasible marks the first position whose mask was optimistic-wrong:
// everything before it is exact and commits, and the lane rolls back to
// re-decide that position with the full oracle.
//
// Output is bit-identical to the exact path. Exact fast-path answers are
// certificates either way, so a committed position's admissible mask —
// every deferred probe at it validated true — equals the exact mask;
// identical masks consume the raw RNG stream identically (specRNG replays
// it across rollbacks); and a rollback restores every piece of lane state,
// so the re-decided position is indistinguishable from the exact path's.

// floatSource is the RNG surface sampleMasked consumes: at most one Float64
// per step, and none when the mask is forced. *rand.Rand satisfies it
// directly; speculative decoding substitutes the replaying specRNG.
type floatSource interface{ Float64() float64 }

// specRNG buffers the raw Float64 stream drawn from the lane's RNG so a
// speculation rollback can replay it. The underlying source cannot be
// rewound; instead every draw is recorded and rollback moves the read
// cursor back. A committed prefix consumes exactly the draws the exact path
// would have (its masks are proven identical), so after a rollback the
// re-decided position's first draw is the same raw value it would have seen
// without speculation.
type specRNG struct {
	src *rand.Rand
	buf []float64
	idx int
}

func (r *specRNG) Float64() float64 {
	if r.idx < len(r.buf) {
		v := r.buf[r.idx]
		r.idx++
		return v
	}
	v := r.src.Float64()
	r.buf = append(r.buf, v)
	r.idx++
	return v
}

// mark returns the replay cursor; rewind moves it back to a mark.
func (r *specRNG) mark() int    { return r.idx }
func (r *specRNG) rewind(m int) { r.idx = m }

// trim drops draws consumed by now-committed positions. Unconsumed draws —
// possible when a rollback's exact re-decide needed fewer draws than the
// speculative attempt — stay buffered for replay.
func (r *specRNG) trim() {
	if r.idx > 0 {
		r.buf = r.buf[:copy(r.buf, r.buf[r.idx:])]
		r.idx = 0
	}
}

// specProbe is one range-feasibility probe the oracle answered
// optimistically during an open window instead of issuing a solver check.
type specProbe struct {
	pos      int // index into laneSpec.cps of the position that asked
	nAsserts int // window asserts on the stack when the probe was asked
	v        smt.Var
	ranges   [][2]int64 // private copy (callers reuse their range buffers)
}

// specCapture is a prefix-cache snapshot staged at a slot boundary inside
// an open window. Inserting it eagerly would publish state other requests
// could warm-start from before the window validates, so captures are staged
// and only inserted once their boundary is proven exact (commit, or the
// committed prefix of a rollback); the rest release their sessions.
type specCapture struct {
	key  []int
	snap *prefixcache.Snapshot
	gen  bool
}

// specCP checkpoints everything a rollback must restore to re-decide one
// position exactly: journal lengths, RNG cursor, LM position and logits,
// per-slot decode state, the oracle's interval state, stats, and the
// engine's patchable witness model.
type specCP struct {
	nAsserts, nProbes, nCaps int
	rngIdx                   int
	lmPos                    int
	logits                   []float32

	slot       int
	inSlot     bool
	state      transition.State
	sepID      int
	sys        *transition.System
	structural *transition.System
	oracle     *slotOracle
	oSnap      slotOracle
	oWvals     []int64

	nVals, nKey, keySlots, genCaps int
	stats                          Stats
	model                          []int64
	modelValid                     bool
}

// laneSpec is the per-lane speculation state. A window opens at the first
// checkpointed position and closes after curK sampled tokens, on record
// completion, or on any step error; resolveWindow settles it.
//
// curK is the effective window size (currently fixed at k; window size
// affects only cost, never output — each committed position's mask is
// proven exact regardless of where the window around it closed).
type laneSpec struct {
	k        int
	curK     int
	rng      *specRNG
	lmLen    func() int
	lmRewind func(pos int, logits []float32) error

	open     bool
	baseMark int // solver assertion mark where the window's asserts begin
	// exactNext suppresses the next checkpoint: the position right after a
	// rollback is re-decided with the window closed, so its probes hit the
	// real oracle — which is what makes rollback converge.
	exactNext bool
	// cool holds the lane's rollback backoff: after a rollback the next
	// coolLen positions decode on the exact path before a window reopens,
	// and coolLen doubles on every rollback (up to k) until a full window
	// commits clean. Fast-path misses cluster — a record whose values keep
	// refuting optimistic probes would otherwise thrash rollback cascades,
	// re-decoding near-full windows over and over. Cost-only: exact-path
	// positions are bit-identical by construction.
	cool    int
	coolLen int
	// warm counts record-leading positions decoded on the exact path before
	// the first window opens. Fast-path misses concentrate at the head of a
	// record — before any committed values exist for interval propagation to
	// anchor on — so the first window would otherwise speculate a near-full
	// record and roll it all back. Cost-only, like cool.
	warm int

	asserts []smt.Formula
	probes  []specProbe
	cps     []specCP
	caps    []specCapture
}

// deferProbe journals an optimistically-answered probe for validation.
func (sp *laneSpec) deferProbe(v smt.Var, ranges [][2]int64) {
	rs := make([][2]int64, len(ranges))
	copy(rs, ranges)
	sp.probes = append(sp.probes, specProbe{
		pos:      len(sp.cps) - 1,
		nAsserts: len(sp.asserts),
		v:        v,
		ranges:   rs,
	})
}

// installRewind arms speculative decoding on the lane. The driver calls it
// when its batch session can rewind a lane (rewindBatchSession). Lanes
// without a rewind hook — or with a zero lookahead, a non-LeJIT mode, or no
// rules — decode on the exact path, which is byte-for-byte the
// pre-speculation code path.
func (ld *laneDecoder) installRewind(lmLen func() int, lmRewind func(pos int, logits []float32) error) {
	if ld.finished || lmRewind == nil {
		return
	}
	k := lookaheadFor(ld.ctx, ld.e.cfg.Lookahead)
	if k <= 0 || ld.e.cfg.Mode != LeJIT || ld.e.cfg.Rules == nil {
		return
	}
	sp := &laneSpec{k: k, curK: k, warm: specWarmup, rng: &specRNG{src: ld.rng}, lmLen: lmLen, lmRewind: lmRewind}
	ld.spec = sp
	ld.draw = sp.rng
}

// specCheckpoint records the lane's state at the top of a sampled position,
// opening a window if none is open. The logits copy is what a rollback
// restores into the LM's buffer — the driver's logits slice aliases it, so
// the restore is visible in place.
func (ld *laneDecoder) specCheckpoint(logits []float32) {
	e := ld.e
	sp := ld.spec
	if !sp.open {
		sp.open = true
		sp.baseMark = e.solver.AssertionMark()
		sp.asserts = sp.asserts[:0]
		sp.probes = sp.probes[:0]
		sp.cps = sp.cps[:0]
		sp.caps = sp.caps[:0]
	}
	cp := specCP{
		nAsserts:   len(sp.asserts),
		nProbes:    len(sp.probes),
		nCaps:      len(sp.caps),
		rngIdx:     sp.rng.mark(),
		lmPos:      sp.lmLen(),
		logits:     append([]float32(nil), logits...),
		slot:       ld.slot,
		inSlot:     ld.inSlot,
		state:      ld.state,
		sepID:      ld.sepID,
		sys:        ld.sys,
		structural: ld.structural,
		oracle:     ld.oracle,
		nVals:      len(ld.vals),
		nKey:       len(ld.key),
		keySlots:   ld.keySlots,
		genCaps:    ld.genCaps,
		stats:      ld.res.Stats,
	}
	if ld.oracle != nil {
		cp.oSnap = *ld.oracle
		cp.oWvals = append([]int64(nil), ld.oracle.wvals...)
	}
	if e.lastModel != nil {
		cp.model = append([]int64(nil), e.lastModel...)
		cp.modelValid = e.lastModelEpoch == e.solver.Epoch()
	}
	sp.cps = append(sp.cps, cp)
}

// rangesFormula encodes "v falls in one of ranges": the disjunction a
// deferred probe would have asked range by range.
func rangesFormula(v smt.Var, ranges [][2]int64) smt.Formula {
	fs := make([]smt.Formula, 0, len(ranges))
	for _, r := range ranges {
		if r[0] == r[1] {
			fs = append(fs, smt.Eq(smt.V(v), smt.C(r[0])))
		} else {
			fs = append(fs, smt.And(smt.Ge(smt.V(v), smt.C(r[0])), smt.Le(smt.V(v), smt.C(r[1]))))
		}
	}
	if len(fs) == 1 {
		return fs[0]
	}
	return smt.Or(fs...)
}

// inRanges reports whether x falls in any of ranges.
func inRanges(x int64, ranges [][2]int64) bool {
	for _, r := range ranges {
		if r[0] <= x && x <= r[1] {
			return true
		}
	}
	return false
}

// specStackTo truncates or replays journaled asserts until exactly n window
// asserts sit above the window's base mark, reproducing the stack as it was
// when the n-th assert had just landed.
func (ld *laneDecoder) specStackTo(n int) {
	s := ld.e.solver
	sp := ld.spec
	target := sp.baseMark + n
	if m := s.AssertionMark(); m > target {
		s.TruncateTo(target)
	}
	for m := s.AssertionMark(); m < target; m = s.AssertionMark() {
		s.Assert(sp.asserts[m-sp.baseMark])
	}
}

// resolveWindow closes the lane's open speculation window. cause, when
// non-nil, is a step error raised at the window's in-flight position: on
// commit it is returned for the caller to propagate (the prefix is proven
// exact, so the error is real), on rollback it is dropped — it belonged to
// a speculative future the rollback erased, and the exact re-decide either
// reproduces it deterministically or never reaches it.
//
// Returns rolledBack=true when the lane rewound and the caller should retry
// the current position; the non-nil error case is a failed LM rewind, which
// is unrecoverable for the lane.
func (ld *laneDecoder) resolveWindow(cause error) (rolledBack bool, err error) {
	sp := ld.spec
	completed := len(sp.cps)
	if cause != nil {
		// The last checkpoint belongs to the position that raised cause; it
		// never finished deciding and is not part of the committed prefix.
		completed--
	}

	viol, fullModel, vo, voN := ld.validateProbes()
	if viol >= 0 {
		if rerr := ld.rollbackTo(sp.probes[viol].pos, vo, voN); rerr != nil {
			return false, rerr
		}
		return true, nil
	}
	ld.specStackTo(len(sp.asserts))
	ld.commitWindow(completed, fullModel, vo, voN)
	return false, cause
}

// validateProbes settles the speculation journal: every deferred probe is
// decided exactly, in journal order, and the first probe whose optimistic
// answer was wrong is returned as viol (-1 when the whole journal holds).
//
// Probes are grouped into runs of equal (variable, stack height) — one
// generated slot's probes form one run, since window asserts land only at
// separators. Each run replays the exact path's interval reasoning at the
// probe-time stack: a replica oracle is seeded from the probe position's
// checkpointed snapshot, solver outcomes feed it as witnesses and envelope
// tightenings, and most siblings then resolve locally, exactly as they
// would have on the exact path. Two certificate sources make the replay
// cheaper than the per-token checks it replaces: the window's one
// full-stack settle model — computed lazily, shared by every run, sound at
// every probe-time stack because those are prefixes of the full stack —
// and the snapshots themselves, which carry slot-entry witnesses forward.
//
// Also returned: the settle model (for commitWindow to publish), and the
// last run's replica with its stack height, so commit or rollback can fold
// the knowledge proven here back into the live oracle (mergeOracle).
func (ld *laneDecoder) validateProbes() (viol int, fullModel []int64, vo *slotOracle, voN int) {
	e := ld.e
	sp := ld.spec
	vfp := e.cfg.ValidateFastPath
	viol, voN = -1, -1

	// The settle model: a model of the full window stack, which certifies at
	// every probe-time stack (each is a prefix of it). When the separator
	// repair (advance) carried the engine's witness model across every
	// window assert, that model already is one — the settle costs nothing.
	// Otherwise it is one lazy Check, skipped entirely by windows whose
	// probes all certify locally.
	settled := false
	if e.lastModel != nil && e.lastModelEpoch == e.solver.Epoch() {
		settled = true
		fullModel = e.lastModel
	}
	settle := func() []int64 {
		if !settled {
			settled = true
			ld.specStackTo(len(sp.asserts))
			if r := e.solver.Check(); r.Status == smt.Sat {
				fullModel = denseModel(r.Model)
			}
		}
		return fullModel
	}
	seed := func(vo *slotOracle) {
		if m := fullModel; m != nil {
			vo.addWitness(m[vo.v])
		}
	}
	// The run's patchable models: full models of the run's probe-time stack
	// that patchModel can evolve to certify feasible values with zero solver
	// work, exactly as the exact path's patchFeasible does against lastModel
	// — this is the fast path that absorbs the canEnd point probes interval
	// reasoning cannot span. Two bases, cheapest first: cpScr from the probe
	// position's checkpointed witness model when one was valid there (free,
	// tried before the settle is ever forced; refreshed by recheck Sat
	// models), and stScr copied from the settle model, which satisfies the
	// whole window stack and hence the run's prefix of it. Each is re-copied
	// per run: patches shift variables the suffix stack re-pins, so an
	// evolved copy is only a model of its own run's stack.
	var cpScr, stScr []int64

	// materialize folds the solver's propagated bounds at the run's
	// probe-time stack into the replica, at most once per run. Bounds can
	// only refute (feasibility always comes from a witness), so they are
	// computed lazily: a run whose probes all certify through witnesses and
	// patches never pays for the base recomputation the replayed stack would
	// force (the dominant non-check cost of validation).
	boundsDone := false
	materialize := func(vo *slotOracle, pr *specProbe) {
		if boundsDone || vo.infeasible {
			return
		}
		boundsDone = true
		ld.specStackTo(pr.nAsserts)
		lo, hi, ok := e.solver.BaseBounds(pr.v)
		if !ok {
			vo.infeasible = true
			return
		}
		if lo > vo.kLo {
			vo.kLo = lo
		}
		if hi < vo.kHi {
			vo.kHi = hi
		}
		vo.convex = !e.solver.VarDisjunctionTainted(pr.v)
	}

	for i := 0; i < len(sp.probes); {
		pr0 := &sp.probes[i]
		vo, voN = ld.replayOracle(pr0), pr0.nAsserts
		seed(vo)
		boundsDone = false
		cpScr, stScr = nil, nil
		if pr0.pos >= 0 && pr0.pos < len(sp.cps) {
			if cp := &sp.cps[pr0.pos]; cp.nAsserts == pr0.nAsserts && cp.modelValid {
				cpScr = append([]int64(nil), cp.model...)
			}
		}
		for ; i < len(sp.probes); i++ {
			pr := &sp.probes[i]
			if pr.v != pr0.v || pr.nAsserts != pr0.nAsserts {
				break // next run
			}
			d := vo.answerRanges(pr.ranges)
			if d == 0 && !boundsDone {
				// Fold in the propagated bounds first: one BaseBounds at the
				// probe-time stack both refutes out-of-envelope ranges and —
				// when the variable is disjunction-free — certifies ranges
				// inside it, absorbing most of the run with no per-probe
				// solver work at all.
				materialize(vo, pr)
				d = vo.answerRanges(pr.ranges)
			}
			if d == 0 && cpScr != nil {
				// Still undecided: try certifying a value in one of the
				// ranges by patching the checkpointed model at the
				// probe-time stack (BaseBounds inside the patch must see
				// exactly the asserts the certificate claims to satisfy).
				ld.specStackTo(pr.nAsserts)
				if ld.patchRanges(vo, cpScr, pr.ranges) {
					d = 1
				}
			}
			if d == 0 {
				// Compute the settle model (once per window) and retry with
				// its witness folded in, then with a patch against it.
				if settle() != nil {
					seed(vo)
					d = vo.answerRanges(pr.ranges)
					if d == 0 {
						if stScr == nil {
							stScr = append([]int64(nil), fullModel...)
						}
						ld.specStackTo(pr.nAsserts)
						if ld.patchRanges(vo, stScr, pr.ranges) {
							d = 1
						}
					}
				}
			}
			if vfp {
				// Debug mode: cross-check every replica answer exactly, as
				// the exact path cross-checks every fast-path answer.
				ld.specStackTo(pr.nAsserts)
				rr := e.solver.CheckWith(rangesFormula(pr.v, pr.ranges))
				if rr.Status == smt.Sat {
					vo.addWitness(rr.Model[pr.v])
					if d == -1 {
						ld.res.Stats.FastPathMismatches++
					}
					if d != -1 {
						continue
					}
				} else if rr.Status == smt.Unsat {
					if d == 1 {
						ld.res.Stats.FastPathMismatches++
						continue // trust the certificate, as crossCheck does
					}
					d = -1
				} else if d == 1 {
					continue
				}
				if d <= 0 {
					return i, fullModel, vo, voN
				}
				continue
			}
			if d == 1 {
				continue
			}
			if d == -1 {
				// The replica refuted it outright: the optimistic yes was
				// wrong, with zero checks spent (propagated bounds or a
				// tightened envelope already exclude every range).
				return i, fullModel, vo, voN
			}
			// Exact resolution of the still-undecided ranges against the
			// probe-time stack, one disjunctive check. Sat feeds a witness,
			// Unsat refutes every range in it; either way siblings benefit.
			// An Unknown (budget, cancellation) cannot certify: roll back
			// and let the exact re-decide surface the cause
			// deterministically.
			und := make([][2]int64, 0, len(pr.ranges))
			for _, r := range pr.ranges {
				if vo.answerLocal(r[0], r[1]) == 0 {
					und = append(und, r)
				}
			}
			ld.specStackTo(pr.nAsserts)
			rr := e.solver.CheckWith(rangesFormula(pr.v, und))
			switch rr.Status {
			case smt.Sat:
				vo.addWitness(rr.Model[pr.v])
				// The fresh model satisfies this run's stack and sits inside
				// the probed range: the best patch base for the run's
				// remaining probes, so install it at the free tier.
				cpScr = denseModel(rr.Model)
			case smt.Unsat:
				for _, r := range und {
					vo.noteUnsat(r[0], r[1])
				}
				return i, fullModel, vo, voN
			default:
				return i, fullModel, vo, voN
			}
		}
	}
	return viol, fullModel, vo, voN
}

// replayOracle builds the validation replica for one run: a detached
// slotOracle holding only interval state, never issuing probes itself. It
// starts wide — non-convex, unbounded — and folds in the probe position's
// checkpointed snapshot when it covers the same variable at the same height,
// carrying slot-entry witnesses and envelope tightenings into validation
// for free. The snapshot misses exactly when the probe came from the
// position that created its slot's oracle (the checkpoint precedes
// beginSlot). The solver's propagated bounds at the probe-time stack are
// NOT loaded here: they can only refute, so validateProbes materializes
// them lazily, after the witness and patch tiers have had their shot.
func (ld *laneDecoder) replayOracle(pr *specProbe) *slotOracle {
	vo := &slotOracle{v: pr.v, kLo: math.MinInt64, kHi: math.MaxInt64}
	if pr.pos >= 0 && pr.pos < len(ld.spec.cps) {
		cp := &ld.spec.cps[pr.pos]
		if cp.oracle != nil && cp.oSnap.v == pr.v && cp.nAsserts == pr.nAsserts && !cp.oSnap.infeasible {
			snap := cp.oSnap
			snap.wvals = cp.oWvals
			mergeOracle(vo, &snap)
		}
	}
	return vo
}

// patchRanges tries to certify some value in one of the still-undecided
// ranges feasible by patching m — a model of the current (replayed) stack —
// following patchFeasible's candidate order: the model's own value clamped
// into the range intersected with the known envelope, then the opposite end
// of the clamped range. On success the witness feeds the replica so sibling
// probes of the run resolve locally.
func (ld *laneDecoder) patchRanges(vo *slotOracle, m []int64, ranges [][2]int64) bool {
	if m == nil {
		return false
	}
	mv := m[vo.v]
	for _, r := range ranges {
		if vo.answerLocal(r[0], r[1]) != 0 {
			continue
		}
		lo, hi := r[0], r[1]
		if lo < vo.kLo {
			lo = vo.kLo
		}
		if hi > vo.kHi {
			hi = vo.kHi
		}
		if lo > hi {
			continue
		}
		x := mv
		if x < lo {
			x = lo
		} else if x > hi {
			x = hi
		}
		if ld.e.patchModel(m, vo.v, x) {
			vo.addWitness(x)
			return true
		}
		if lo != hi {
			y := lo
			if x == lo {
				y = hi
			}
			if ld.e.patchModel(m, vo.v, y) {
				vo.addWitness(y)
				return true
			}
		}
	}
	return false
}

// answerRanges resolves a disjunctive probe from interval state alone:
// +1 some range is feasible, -1 every range is infeasible, 0 undecided.
func (o *slotOracle) answerRanges(ranges [][2]int64) int {
	all := true
	for _, r := range ranges {
		switch o.answerLocal(r[0], r[1]) {
		case 1:
			return 1
		case 0:
			all = false
		}
	}
	if all {
		return -1
	}
	return 0
}

// mergeOracle folds src's interval knowledge into dst. Sound only when both
// describe the same variable at the same assertion stack: witnesses are
// feasibility certificates there, and src's envelope holds every feasible
// value by the same noteUnsat argument.
func mergeOracle(dst, src *slotOracle) {
	if src == nil || src.infeasible || dst.infeasible || dst.v != src.v {
		return
	}
	if src.kLo > dst.kLo {
		dst.kLo = src.kLo
	}
	if src.kHi < dst.kHi {
		dst.kHi = src.kHi
	}
	if !src.hasW {
		return
	}
	if src.convex {
		// A convex source keeps no individual witness list; its extremes
		// are genuine witnesses for any destination (a non-convex dst
		// records them individually, assuming nothing in between).
		dst.addWitness(src.wLo)
		dst.addWitness(src.wHi)
		return
	}
	for _, w := range src.wvals {
		dst.addWitness(w)
	}
}

// commitWindow publishes a fully-validated window: staged captures are
// inserted, the validation model (when one was found) seeds the next slot's
// witness, and the accepted speculative tokens are counted. vo, when it
// describes the in-flight slot's variable at the current stack height, is
// the last run's validation replica: folding it into the live oracle hands
// the witnesses and envelope tightenings proven during validation to the
// decode that continues from here.
func (ld *laneDecoder) commitWindow(accepted int, model []int64, vo *slotOracle, voN int) {
	sp := ld.spec
	ld.insertCaps(sp.caps)
	sp.caps = sp.caps[:0]
	if model != nil {
		ld.e.noteModel(model)
	}
	if vo != nil && ld.oracle != nil && ld.oracle.v == vo.v && voN == len(sp.asserts) {
		mergeOracle(ld.oracle, vo)
	}
	ld.res.Stats.SpecAcceptedTokens += accepted
	if accepted >= sp.curK {
		sp.coolLen = 0
	}
	sp.open = false
	sp.rng.trim()
}

// rollbackTo rewinds the lane to re-decide window position q exactly.
// Everything the speculative positions ≥ q touched is restored from cps[q]:
// solver stack, LM position and logits (in place — the driver's logits
// slice aliases the session buffer, so no driver change is needed), RNG
// cursor, per-slot decode state, oracle intervals, stats, and the engine's
// witness model. The prefix before q is proven exact and commits. vo, when
// it covers the restored position's variable at its stack height, is the
// violated run's validation replica: merging it means the exact re-decide
// starts with everything validation already proved — including the
// refutation that forced this rollback, when the envelope can express it.
func (ld *laneDecoder) rollbackTo(q int, vo *slotOracle, voN int) error {
	e := ld.e
	sp := ld.spec
	cp := &sp.cps[q]

	ld.specStackTo(cp.nAsserts)
	if err := sp.lmRewind(cp.lmPos, cp.logits); err != nil {
		// The LM refused a rewind over tokens it accepted: the lane is
		// unrecoverable. finish() releases the staged captures.
		sp.open = false
		return fmt.Errorf("core: speculation rollback: %w", err)
	}
	sp.rng.rewind(cp.rngIdx)

	ld.slot, ld.inSlot = cp.slot, cp.inSlot
	ld.state, ld.sepID = cp.state, cp.sepID
	ld.sys, ld.structural = cp.sys, cp.structural
	ld.oracle = cp.oracle
	if cp.oracle != nil {
		*cp.oracle = cp.oSnap
		cp.oracle.wvals = cp.oWvals
		if vo != nil && cp.oSnap.v == vo.v && cp.nAsserts == voN {
			mergeOracle(cp.oracle, vo)
		}
	}
	// When the restored position re-decides the start of a slot, its oracle
	// does not exist yet — beginSlot builds it after this rollback. Stash
	// the replica so beginSlot can fold it in, guarded by the assertion mark
	// (the knowledge is only sound at the exact stack it was proven at).
	ld.mergeO, ld.mergeMark = nil, 0
	if vo != nil && cp.nAsserts == voN {
		ld.mergeO, ld.mergeMark = vo, sp.baseMark+cp.nAsserts
	}
	ld.vals = ld.vals[:cp.nVals]
	ld.key = ld.key[:cp.nKey]
	ld.keySlots = cp.keySlots
	ld.genCaps = cp.genCaps

	// Checkpointed stats predate the window's deferred capture inserts, so
	// restore first and account the committed prefix after.
	ld.res.Stats = cp.stats
	ld.res.Stats.SpecAcceptedTokens += q
	ld.res.Stats.SpecRollbacks++

	// The restored model was valid for exactly the stack just rebuilt (the
	// journal replays identical formulas), so revalidate it at the current
	// epoch; epoch 0 never matches a live solver (declarations bump it).
	e.lastModel = cp.model
	if cp.modelValid {
		e.lastModelEpoch = e.solver.Epoch()
	} else {
		e.lastModelEpoch = 0
	}

	ld.insertCaps(sp.caps[:cp.nCaps])
	dropCaps(sp.caps[cp.nCaps:])
	sp.caps = sp.caps[:0]

	sp.open = false
	sp.exactNext = true
	if sp.coolLen == 0 {
		sp.coolLen = 1
	} else if sp.coolLen < sp.k {
		sp.coolLen *= 2
	}
	sp.cool = sp.coolLen
	sp.rng.trim()
	return nil
}

// insertCaps inserts staged captures whose boundaries are proven exact.
// Insert takes ownership of each snapshot's session either way.
func (ld *laneDecoder) insertCaps(caps []specCapture) {
	cache := ld.e.cfg.PrefixCache
	for i := range caps {
		if cache == nil {
			caps[i].snap.Sess.Release()
			continue
		}
		if cache.Insert(caps[i].key, caps[i].snap) {
			ld.res.Stats.PrefixCaptures++
		}
	}
}

// dropCaps releases staged captures from an erased speculative future.
func dropCaps(caps []specCapture) {
	for i := range caps {
		caps[i].snap.Sess.Release()
	}
}

// specWarmup is the number of record-leading positions each lane decodes
// exactly before speculating (see laneSpec.warm). A variable rather than a
// constant so rollback-focused tests can force fully eager speculation.
var specWarmup = 4
