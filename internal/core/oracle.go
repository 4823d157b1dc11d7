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
// (patchFeasible): certifying a value by moving the engine's current model
// to it and repairing the rule conjuncts the move breaks (patchValue).
// Everything else falls back to a real CheckWith probe, whose outcome (model
// or refutation) feeds the state above, so the fallback rate decays as the
// slot's digits are generated.
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
	wvals    []int64 // individual witnesses (tainted slots only), in e.wvalBuf
}

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
		o.wvals = e.wvalBuf[:0]
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
		o.e.wvalBuf = o.wvals
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
// tightens it), patch M[v] = x, and repair the rule conjuncts the patch
// breaks (patchValue). If the repair succeeds, the patched M is again a full model:
// x is feasible, the patch is kept (refreshing the witness chain for later
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

// maxRepairMoves caps how many variables one patch may move besides the
// patched one. On the benchmark's impute and synthesis rules no successful
// repair moved more than four and no failed one failed on the cap (DESIGN.md
// §6), so the cap only bounds the work a hopeless patch does before the
// solver takes over.
const maxRepairMoves = 4

// patchMove is one entry of the engine's repair log: a variable the current
// patch moved and the value it held before.
type patchMove struct {
	v   smt.Var
	old int64
}

// patchValue attempts to keep lastModel a full model of the current stack
// under M[v] = x, by bounded greedy repair. While some rule conjunct that
// mentions a moved variable is false, one more variable moves to make it
// true (repair). A success is a certificate:
//
//   - every rule conjunct that mentions a moved variable has been
//     re-evaluated true after the last move of its variables (through the
//     clause state, see clauseIndex), and the others kept the truth value
//     they had under the satisfying model;
//   - a repair moves only variables whose propagated base bounds leave slack
//     and contain the new value, so pinned and propagation-fixed variables —
//     and with them every per-record equality — never move, and no value
//     leaves its declared domain.
//
// On failure every move is rolled back, leaving lastModel and its clause
// state as they were. Callers must ensure lastModel is valid for the current
// stack minus any constraint on v itself, and x inside v's envelope (the
// oracle fast path and the separator-assert repair in advance() both do).
func (e *Engine) patchValue(v smt.Var, x int64) bool {
	m := e.lastModel
	if m[v] == x {
		// m already satisfies the stack with this value.
		return true
	}
	rs := &e.repairState
	if !rs.valid {
		rs.rebuild(e.clauses, m)
	}
	e.moves[0] = patchMove{v: v, old: m[v]}
	e.nMoves = 1
	e.setVar(v, x)
	// A conjunct is last checked after the last move of any of its
	// variables: a repair appends the variable it moves, whose conjuncts
	// are then checked in turn. Once no conjunct is broken the rest of the
	// scan would find nothing to repair.
	for i := 0; i < e.nMoves; i++ {
		for _, c := range e.clauses.vars[e.moves[i].v].conj {
			if rs.broken == 0 {
				return true
			}
			if rs.nTrue[c] == 0 && !e.repair(c) {
				for j := e.nMoves - 1; j >= 0; j-- {
					e.setVar(e.moves[j].v, e.moves[j].old)
				}
				return false
			}
		}
	}
	return true
}

// repair makes the broken rule conjunct c true by the minimal repairShift
// move of one variable that has not moved yet in this patch: an atom through
// one of its terms, a disjunction through a term of any one of its atomic
// alternatives. A move that leaves every conjunct on the moved variable true
// is preferred; otherwise the first admissible move is taken and what it
// breaks is left to patchValue's loop.
func (e *Engine) repair(c int32) bool {
	if e.nMoves > maxRepairMoves {
		return false
	}
	for _, clean := range [2]bool{true, false} {
		for _, a := range e.clauses.conj[c].atoms {
			if e.repairAtom(a, clean) {
				return true
			}
		}
	}
	return false
}

// repairAtom moves one unmoved variable of atom a by the minimal integer
// shift that makes a hold: an exact cancellation for an equality, the
// nearest boundary crossing for an inequality or disequality. A variable is
// adjustable when its propagated base bounds leave slack (lo < hi) and
// contain the shifted value. With clean set, a move is taken only if every
// conjunct mentioning the variable holds after it.
func (e *Engine) repairAtom(ai int32, clean bool) bool {
	a := &e.clauses.atoms[ai]
	m, rs := e.lastModel, &e.repairState
	resid := rs.resid[ai]
next:
	for i := 0; i < a.Expr.NumTerms(); i++ {
		u, cu := a.Expr.Term(i)
		for _, mv := range e.moves[:e.nMoves] {
			if mv.v == u {
				continue next
			}
		}
		d, ok := repairShift(a.Op, resid, cu)
		if !ok {
			continue
		}
		lo, hi, okB := e.solver.BaseBounds(u)
		old := m[u]
		if !okB || lo == hi || old+d < lo || old+d > hi {
			continue
		}
		e.setVar(u, old+d)
		if clean {
			for _, c := range e.clauses.vars[u].conj {
				if rs.nTrue[c] == 0 {
					e.setVar(u, old)
					continue next
				}
			}
		}
		e.moves[e.nMoves] = patchMove{v: u, old: old}
		e.nMoves++
		return true
	}
	return false
}

// setVar moves M[u] to x and brings the clause state along: only u's
// occurrences change residual, only their conjuncts can change truth.
func (e *Engine) setVar(u smt.Var, x int64) {
	m, rs, ix := e.lastModel, &e.repairState, e.clauses
	d := x - m[u]
	m[u] = x
	for _, o := range ix.vars[u].occ {
		r := rs.resid[o.atom]
		was := o.op.Holds(r)
		r += o.c * d
		rs.resid[o.atom] = r
		if now := o.op.Holds(r); now != was && o.conj >= 0 {
			rs.count(o.conj, now)
		}
	}
	for _, c := range ix.vars[u].opaque {
		if now := smt.Holds(ix.conj[c].opaque, m); now != (rs.nTrue[c] > 0) {
			rs.count(c, now)
		}
	}
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

// FeasibleAny is the transition.BatchOracle: does any range contain a
// feasible value? Local answers are drained first, so the solver only sees
// ranges the interval state cannot decide — and each solver outcome refines
// that state, often deciding the remaining ranges for free. A one-range call
// (the terminator, digit 0, HasPath) is answerLocal, then patchFeasible,
// then probe.
func (o *slotOracle) FeasibleAny(ranges [][2]int64) bool {
	// Queries are counted at resolution: ranges skipped by a short-circuit
	// are not counted.
	und := o.e.rangeBuf[:0]
	for _, r := range ranges {
		d := o.answerLocal(r[0], r[1])
		if d == 0 {
			und = append(und, r)
			continue
		}
		o.st.OracleQueries++
		o.st.OracleFastPath++
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
	e.repairState.valid = false
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

// clauseIndex is the rule formula flattened for model repair. The formula
// is fixed at engine construction and per-record state (known and pinned
// values) is asserted separately as equalities that never mention an
// in-flight slot variable, so the root engine builds the index once and its
// clones share it read-only, as they share rulesModel.
//
// A top-level conjunct is a clause when it is an atom or a disjunction of
// atoms. A clause holds exactly when one of its atoms does, so under a model
// M its truth is a count of true atoms, and an atom's truth is its residual
// (Expr at M, the value smt.Holds compares with 0) against its operator. A
// move of one variable changes only the residuals of that variable's
// occurrences, by coefficient × shift. Conjuncts that are not clauses stay
// opaque: their truth is smt.Holds, re-evaluated when one of their
// variables moves.
type clauseIndex struct {
	atoms []smt.Atom // every conjunct's atomic alternatives
	conj  []clauseConj
	vars  []clauseVar // indexed by smt.Var
}

// clauseConj lists a conjunct's atomic alternatives in formula order — the
// atoms repair may fix it through. opaque is the conjunct itself when it is
// not a clause, nil otherwise.
type clauseConj struct {
	atoms  []int32
	opaque smt.Formula
}

// clauseVar is one variable's view of the index: the conjuncts mentioning
// it in formula order, its occurrences, and the opaque conjuncts among them.
type clauseVar struct {
	conj   []int32
	occ    []clauseOcc
	opaque []int32
}

// clauseOcc is one term c·v of an atom, with what a move of v needs to
// update the atom's conjunct: the atom's operator, and the conjunct (-1 when
// it is opaque: the atom's residual is kept, for repair, but counts
// nothing).
type clauseOcc struct {
	atom, conj int32
	c          int64
	op         smt.AtomOp
}

// newClauseIndex flattens f (nil: no rules) over a solver with nvars
// variables.
func newClauseIndex(f smt.Formula, nvars int) *clauseIndex {
	ix := &clauseIndex{vars: make([]clauseVar, nvars)}
	for ci, c := range smt.Conjuncts(f) {
		cid := int32(ci)
		alts := smt.Disjuncts(c)
		if alts == nil {
			alts = []smt.Formula{c}
		}
		cc, counted := clauseConj{}, cid
		for _, alt := range alts {
			if _, ok := smt.AtomOf(alt); !ok {
				cc.opaque, counted = c, -1
			}
		}
		for _, alt := range alts {
			a, ok := smt.AtomOf(alt)
			if !ok {
				continue
			}
			ai := int32(len(ix.atoms))
			for i := 0; i < a.Expr.NumTerms(); i++ {
				u, cu := a.Expr.Term(i)
				ix.vars[u].occ = append(ix.vars[u].occ, clauseOcc{atom: ai, conj: counted, c: cu, op: a.Op})
			}
			ix.atoms = append(ix.atoms, a)
			cc.atoms = append(cc.atoms, ai)
		}
		ix.conj = append(ix.conj, cc)
		for u := range smt.FormulaVars(c) {
			ix.vars[u].conj = append(ix.vars[u].conj, cid)
			if cc.opaque != nil {
				ix.vars[u].opaque = append(ix.vars[u].opaque, cid)
			}
		}
	}
	return ix
}

// clauseState is one engine's clause state for its lastModel: every atom's
// residual, every conjunct's count of true atoms (an opaque conjunct counts
// 1 when it holds), and how many conjuncts count 0. noteModel invalidates
// it; patchValue rebuilds it on first use and keeps it current through
// setVar, including across a rollback.
type clauseState struct {
	valid  bool
	resid  []int64
	nTrue  []int32
	broken int
}

// rebuild recomputes the state from scratch under m. Once the engine has
// rebuilt it, the slices are reused and a rebuild allocates nothing.
func (rs *clauseState) rebuild(ix *clauseIndex, m []int64) {
	rs.resid = rs.resid[:0]
	for _, a := range ix.atoms {
		rs.resid = append(rs.resid, a.Expr.At(m))
	}
	rs.nTrue = rs.nTrue[:0]
	rs.broken = 0
	for _, c := range ix.conj {
		var n int32
		if c.opaque != nil {
			if smt.Holds(c.opaque, m) {
				n = 1
			}
		} else {
			for _, ai := range c.atoms {
				if ix.atoms[ai].Op.Holds(rs.resid[ai]) {
					n++
				}
			}
		}
		if n == 0 {
			rs.broken++
		}
		rs.nTrue = append(rs.nTrue, n)
	}
	rs.valid = true
}

// count records that one atom of conjunct c (or opaque conjunct c itself)
// became true (now) or false.
func (rs *clauseState) count(c int32, now bool) {
	if now {
		if rs.nTrue[c] == 0 {
			rs.broken--
		}
		rs.nTrue[c]++
		return
	}
	rs.nTrue[c]--
	if rs.nTrue[c] == 0 {
		rs.broken++
	}
}
