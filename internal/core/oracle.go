package core

import (
	"repro/internal/smt"
)

// slotOracle answers the transition system's range-feasibility probes for
// one slot — one solver epoch — keeping enough interval state to resolve
// most probes without a solver call (the interval fast path, DESIGN.md §6).
//
// Invariants maintained per slot, all sound with respect to the current
// assertion stack:
//
//   - [kLo, kHi] is a superset of the slot variable's feasible set. It
//     starts at the solver's propagated root bounds (BaseBounds) and, for
//     convex slots, tightens when an unsat probe proves a side empty. A
//     probe range disjoint from it is infeasible — answered locally.
//   - Witnesses are values proven feasible by an actual solver model. For
//     convex slots (no live disjunction reaches the variable, see
//     smt.VarDisjunctionTainted) the whole span [wLo, wHi] between the
//     extreme witnesses is feasible, so any probe intersecting it is
//     feasible — answered locally. For tainted slots only exact witnessed
//     values count.
//
// Probes the intervals cannot decide first try model patching
// (patchFeasible): certifying a value by ground-evaluating the affected
// rule conjuncts against the engine's current model. Everything else falls
// back to a real CheckWith probe, whose outcome (model or refutation) feeds
// the state above, so the fallback rate decays as the slot's digits are
// generated.
type slotOracle struct {
	e  *Engine
	st *Stats
	v  smt.Var

	infeasible bool // the assertions conflict: nothing is feasible
	// err is set (sticky, first failure wins) when a solver probe returned
	// Unknown — the budget ran out or the request's context was cancelled
	// mid-Check. The probe answers false locally (sound: nothing is emitted
	// on its strength), and the lane driver checks budgetErr after each
	// oracle-backed transition call so the lane fails with the real cause
	// instead of a spurious ErrInfeasible.
	err      error
	convex   bool  // feasible set proven hole-free: interval reasoning ok
	kLo, kHi int64 // no feasible value lies outside [kLo, kHi]
	hasW     bool
	wLo, wHi int64   // extreme witnessed-feasible values
	wvals    []int64 // individual witnesses (tainted slots only)
}

// wvalsCap sizes a tainted slot's witness list at slot start, so the
// witnesses its probes and patches collect append without allocating.
const wvalsCap = 16

// newSlotOracle builds the oracle for slot variable v at the current epoch.
// Costs zero solver checks: the bounds come from the epoch's propagated base
// store, and the witness (when available) from the last model the engine saw.
func (e *Engine) newSlotOracle(v smt.Var, st *Stats) *slotOracle {
	o := &slotOracle{e: e, st: st, v: v}
	lo, hi, ok := e.solver.BaseBounds(v)
	if !ok {
		o.infeasible = true
		return o
	}
	o.kLo, o.kHi = lo, hi
	o.convex = !e.solver.VarDisjunctionTainted(v)
	if !o.convex {
		o.wvals = make([]int64, 0, wvalsCap)
	}
	if e.lastModel != nil && e.lastModelEpoch == e.solver.Epoch() {
		o.addWitness(e.lastModel[v])
	}
	return o
}

// addWitness records a feasible value harvested from a solver model.
func (o *slotOracle) addWitness(x int64) {
	if !o.hasW {
		o.hasW, o.wLo, o.wHi = true, x, x
	} else {
		if x < o.wLo {
			o.wLo = x
		}
		if x > o.wHi {
			o.wHi = x
		}
	}
	if !o.convex {
		for _, w := range o.wvals {
			if w == x {
				return
			}
		}
		o.wvals = append(o.wvals, x)
	}
}

// noteUnsat tightens the known envelope after a proven-infeasible probe.
// Convex slots only: with the feasible set one interval [A, B] containing
// the witnesses, an unsat range ending below wLo forces A > hi (otherwise
// hi itself, between A and wLo ≤ B, would be feasible); symmetrically for
// ranges starting above wHi.
func (o *slotOracle) noteUnsat(lo, hi int64) {
	if !o.convex || !o.hasW {
		return
	}
	if hi < o.wLo && hi+1 > o.kLo {
		o.kLo = hi + 1
	}
	if lo > o.wHi && lo-1 < o.kHi {
		o.kHi = lo - 1
	}
}

// answerLocal resolves a probe from interval state alone:
// +1 feasible, -1 infeasible, 0 unknown (needs the solver).
func (o *slotOracle) answerLocal(lo, hi int64) int {
	if o.infeasible || hi < o.kLo || lo > o.kHi {
		return -1
	}
	if o.hasW {
		if o.convex {
			if lo <= o.wHi && hi >= o.wLo {
				return 1
			}
		} else {
			for _, w := range o.wvals {
				if lo <= w && w <= hi {
					return 1
				}
			}
		}
	}
	return 0
}

// probe issues the real solver query and feeds the outcome back into the
// interval state. (An epoch-keyed result cache used to sit in front of this;
// it was removed once the interval fast path left it a 0.17% hit rate — the
// interval state absorbs exactly the repeats the cache used to serve, see
// DESIGN.md §6.)
func (o *slotOracle) probe(qlo, qhi int64) bool {
	e := o.e
	r := e.solver.CheckWith(smt.Ge(smt.V(o.v), smt.C(qlo)), smt.Le(smt.V(o.v), smt.C(qhi)))
	o.st.OracleProbes++
	sat := r.Status == smt.Sat
	if sat {
		e.noteSolverModel(r.Model)
		o.addWitness(r.Model[o.v])
	} else if r.Status == smt.Unsat {
		o.noteUnsat(qlo, qhi)
	} else if o.err == nil {
		// Unknown: budget or cancellation. Record the cause; do not treat
		// the range as proven infeasible (noteUnsat would be unsound here).
		if o.err = r.Err; o.err == nil {
			o.err = smt.ErrBudget
		}
	}
	return sat
}

// budgetErr reports the first Unknown a probe hit, or nil.
func (o *slotOracle) budgetErr() error { return o.err }

// patchFeasible tries to certify some value in [lo, hi] feasible by model
// patching, without a solver call. The engine's lastModel — when its epoch
// matches — is a complete satisfying assignment for the live assertion
// stack. Setting M[v] = x can only change the truth of conjuncts that
// mention v, and those are exactly the rule formula's (pinned and known
// values are asserted as equalities over other, already-fixed variables).
// So: clamp a candidate x into the probe range intersected with the known
// envelope (which keeps x inside v's declared domain — BaseBounds only ever
// tightens it), patch M[v] = x, and ground-evaluate the v-mentioning rule
// conjuncts. If all hold, the patched M is again a full model: x is
// feasible, the patch is kept (refreshing the witness chain for later
// slots), and the probe is answered with zero solver work.
//
// Only a positive answer is possible here; refutation still needs the
// solver. Candidates are the clamped model value first (for a tainted slot
// this is usually the exact probed digit value), then the opposite end of
// the clamped range.
func (o *slotOracle) patchFeasible(lo, hi int64) bool {
	e := o.e
	if e.lastModel == nil || e.lastModelEpoch != e.solver.Epoch() {
		return false
	}
	m := e.lastModel[o.v]
	if lo < o.kLo {
		lo = o.kLo
	}
	if hi > o.kHi {
		hi = o.kHi
	}
	if lo > hi {
		return false
	}
	x := m
	if x < lo {
		x = lo
	} else if x > hi {
		x = hi
	}
	if o.tryPatch(x) {
		return true
	}
	if lo != hi {
		y := lo
		if x == lo {
			y = hi
		}
		return o.tryPatch(y)
	}
	return false
}

// tryPatch attempts M[v] = x via the engine-level patch, recording the
// witness on success.
func (o *slotOracle) tryPatch(x int64) bool {
	if o.e.patchValue(o.v, x) {
		o.addWitness(x)
		return true
	}
	return false
}

// patchValue attempts to keep lastModel a full model of the current stack
// under M[v] = x: it evaluates every rule conjunct mentioning v under the
// patched model (smt.Holds: the model is indexed by variable, so a conjunct
// costs a slice read per term), keeping the patch on success and rolling it
// back on any failure. Callers must ensure lastModel is valid for the
// current stack minus any constraint on v itself (the oracle fast path and
// the separator-assert repair in advance() both do).
func (e *Engine) patchValue(v smt.Var, x int64) bool {
	m := e.lastModel
	old := m[v]
	if x == old {
		// m already satisfies the stack with this value.
		return true
	}
	m[v] = x
	var broken smt.Formula
	for _, c := range e.conjunctsOn(v) {
		if smt.Holds(c, m) {
			continue
		}
		if broken != nil {
			// Two independent conjuncts broken: repair would need to move
			// two more variables. Leave it to the solver.
			m[v] = old
			return false
		}
		broken = c
	}
	if broken == nil || e.repairConjunct(m, broken, v) {
		return true
	}
	m[v] = old
	return false
}

// repairConjunct restores a single broken atomic conjunct — typically a
// coupling constraint like TotalIngress = sum(I) — by shifting the patch's
// residual onto one other adjustable variable in the same atom, then
// re-validating every conjunct that variable appears in. The shift is the
// minimal integer move of that variable that satisfies the atom again: an
// exact cancellation for an equality, the nearest boundary crossing for an
// inequality or disequality. A variable is adjustable when its propagated
// base bounds leave slack (pinned and propagation-fixed variables have
// lo == hi and are skipped), which also keeps the shifted value inside its
// declared domain. On success the model differs from a known-satisfying one
// in exactly {v, u}, and every conjunct mentioning either has been
// re-evaluated true: the patched model is again a full model.
func (e *Engine) repairConjunct(m []int64, broken smt.Formula, v smt.Var) bool {
	a, isAtom := smt.AtomOf(broken)
	if !isAtom {
		return false
	}
	resid := a.Expr.At(m)
	for i := 0; i < a.Expr.NumTerms(); i++ {
		u, cu := a.Expr.Term(i)
		if u == v {
			continue
		}
		d, ok := repairShift(a.Op, resid, cu)
		if !ok {
			continue
		}
		lo, hi, okB := e.solver.BaseBounds(u)
		if !okB || lo == hi {
			continue
		}
		oldU := m[u]
		newU := oldU + d
		if newU < lo || newU > hi {
			continue
		}
		m[u] = newU
		good := true
		for _, c := range e.conjunctsOn(u) {
			if !smt.Holds(c, m) {
				good = false
				break
			}
		}
		if good {
			return true
		}
		m[u] = oldU
	}
	return false
}

// repairShift computes the minimal integer move d of a variable with
// coefficient cu that makes resid + cu·d satisfy "OP 0" (atoms are
// normalized to Expr OP 0). ok is false when no move helps (zero residual
// on an equality that is somehow still broken cannot happen; a
// non-divisible equality residual can).
func repairShift(op smt.AtomOp, resid, cu int64) (d int64, ok bool) {
	switch op {
	case smt.OpEQ:
		if resid%cu != 0 {
			return 0, false
		}
		return -resid / cu, true
	case smt.OpNE:
		// Broken means resid == 0: any single step off zero works.
		return 1, true
	case smt.OpLE:
		return shiftAtMost(resid, cu, 0), true
	case smt.OpLT:
		return shiftAtMost(resid, cu, -1), true
	case smt.OpGE:
		return shiftAtLeast(resid, cu, 0), true
	case smt.OpGT:
		return shiftAtLeast(resid, cu, 1), true
	}
	return 0, false
}

// shiftAtMost returns the smallest-magnitude d with resid + cu·d ≤ bound.
func shiftAtMost(resid, cu, bound int64) int64 {
	if cu > 0 {
		return floorDiv(bound-resid, cu)
	}
	return ceilDiv(bound-resid, cu)
}

// shiftAtLeast returns the smallest-magnitude d with resid + cu·d ≥ bound.
func shiftAtLeast(resid, cu, bound int64) int64 {
	if cu > 0 {
		return ceilDiv(bound-resid, cu)
	}
	return floorDiv(bound-resid, cu)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// crossCheck verifies a fast-path answer against the solver (the
// Config.ValidateFastPath debugging mode). Unknown results (budget
// exhaustion) are skipped: the fast path's answers are certificates, the
// solver's Unknown is not.
func (o *slotOracle) crossCheck(lo, hi int64, sat bool) {
	r := o.e.solver.CheckWith(smt.Ge(smt.V(o.v), smt.C(lo)), smt.Le(smt.V(o.v), smt.C(hi)))
	if r.Status == smt.Unknown {
		return
	}
	if (r.Status == smt.Sat) != sat {
		o.st.FastPathMismatches++
	}
}

// Feasible is the transition.Oracle: one range probe.
func (o *slotOracle) Feasible(lo, hi int64) bool {
	o.st.OracleQueries++
	if !o.e.cfg.NoIntervalFastPath {
		if d := o.answerLocal(lo, hi); d != 0 {
			o.st.OracleFastPath++
			if o.e.cfg.ValidateFastPath {
				o.crossCheck(lo, hi, d > 0)
			}
			return d > 0
		}
		if o.patchFeasible(lo, hi) {
			o.st.OracleFastPath++
			if o.e.cfg.ValidateFastPath {
				o.crossCheck(lo, hi, true)
			}
			return true
		}
	}
	return o.probe(lo, hi)
}

// FeasibleAny is the transition.BatchOracle: does any range contain a
// feasible value? Local answers are drained first, so the solver only sees
// ranges the interval state cannot decide — and each solver outcome refines
// that state, often deciding the remaining ranges for free.
func (o *slotOracle) FeasibleAny(ranges [][2]int64) bool {
	if o.e.cfg.NoIntervalFastPath {
		// Ablation path: identical probe sequence to per-range decoding.
		for _, r := range ranges {
			if o.Feasible(r[0], r[1]) {
				return true
			}
		}
		return false
	}
	// Queries are counted at resolution: ranges skipped by a short-circuit
	// are not counted, matching the per-range path's early exit.
	und := o.e.rangeBuf[:0]
	for _, r := range ranges {
		d := o.answerLocal(r[0], r[1])
		if d == 0 {
			und = append(und, r)
			continue
		}
		o.st.OracleQueries++
		o.st.OracleFastPath++
		if o.e.cfg.ValidateFastPath {
			o.crossCheck(r[0], r[1], d > 0)
		}
		if d > 0 {
			o.e.rangeBuf = und
			return true
		}
	}
	o.e.rangeBuf = und
	for _, r := range und {
		o.st.OracleQueries++
		// Earlier probes in this loop may have refined the state.
		if d := o.answerLocal(r[0], r[1]); d != 0 {
			o.st.OracleFastPath++
			if d > 0 {
				return true
			}
			continue
		}
		if o.patchFeasible(r[0], r[1]) {
			o.st.OracleFastPath++
			if o.e.cfg.ValidateFastPath {
				o.crossCheck(r[0], r[1], true)
			}
			return true
		}
		if o.probe(r[0], r[1]) {
			return true
		}
	}
	return false
}

// noteModel remembers the latest full model the solver produced. Models are
// feasibility certificates for every variable at the epoch they were found,
// which seeds the next slot's witness for free; laneDecoder.advance
// re-validates the model across value assertions when the pinned value
// matches.
func (e *Engine) noteModel(m []int64) {
	if m == nil {
		return
	}
	e.lastModel = m
	e.lastModelEpoch = e.solver.Epoch()
}

// noteSolverModel is noteModel of m re-indexed by variable (solver models
// are complete — one entry per declared variable — so the slice has no
// gaps), written into the array lastModel already holds when it is large
// enough. That array is the engine's own — a prefix-cache capture, the one
// reader that keeps a witness past the next probe, keeps a copy — and
// patching already rewrites it in place.
func (e *Engine) noteSolverModel(m map[smt.Var]int64) {
	d := e.lastModel
	if cap(d) < len(m) {
		d = make([]int64, len(m))
	}
	d = d[:len(m)]
	for v, x := range m {
		d[v] = x
	}
	e.noteModel(d)
}

// conjunctsOn returns the rule formula's top-level conjuncts that mention v,
// building the index lazily on first use. The index is shared across records:
// the rule formula is fixed at engine construction, and per-record state
// (known/pinned values) is asserted separately as equalities that never
// mention an in-flight slot variable.
func (e *Engine) conjunctsOn(v smt.Var) []smt.Formula {
	if e.varConjuncts == nil {
		e.varConjuncts = make([][]smt.Formula, e.solver.NumVars())
		if e.ruleFormula != nil {
			for _, c := range smt.Conjuncts(e.ruleFormula) {
				for u := range smt.FormulaVars(c) {
					e.varConjuncts[u] = append(e.varConjuncts[u], c)
				}
			}
		}
	}
	return e.varConjuncts[v]
}
