package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/smt"
)

// repairTrial is one draw of the model-repair soundness gate: a random small
// stack of rules — sum equalities, pairwise inequalities, disequalities and
// implications, some with a conjunctive antecedent — plus per-record
// equalities that pin variables, a satisfying lastModel, and then a sequence
// of steps on that one engine. A step is either a patchValue of a non-pinned
// variable to a value inside its envelope (half of them first assert the
// patched value, as advance() does at a separator) or a replacement of the
// model by a fresh solver model (noteSolverModel, as a probe does).
//
// On success a patched model must satisfy the whole stack under the
// map-based reference evaluator and keep every variable in its declared
// domain; on failure lastModel must be unchanged, bit for bit, and a patch
// that asserted its value is followed by a replacement, as the decoder's
// next probe would bring. After every step the engine's clause state, when
// valid, must equal a rebuild from scratch. It returns the number of
// accepted patches, of those moving ≥ 2 variables besides the patched one,
// and of refused patches.
func repairTrial(t *testing.T, rng *rand.Rand) (accepted, multi, refused int) {
	t.Helper()
	s := smt.NewSolver()
	n := 3 + rng.Intn(5)
	vars := make([]smt.Var, n)
	for i := range vars {
		lo := int64(rng.Intn(3))
		vars[i] = s.NewVar("x", lo, lo+4+int64(rng.Intn(25)))
	}
	pick := func() smt.Var { return vars[rng.Intn(n)] }
	term := func() smt.LinExpr { return smt.CV(1+int64(rng.Intn(3)), pick()) }
	atom := func() smt.Formula {
		a, b := smt.V(pick()), smt.C(int64(rng.Intn(20)))
		switch rng.Intn(5) {
		case 0:
			return smt.Le(a, b)
		case 1:
			return smt.Ge(a, b)
		case 2:
			return smt.Lt(a, b)
		case 3:
			return smt.Ne(a, b)
		}
		return smt.Gt(a, b)
	}
	var rs []smt.Formula
	for k := 2 + rng.Intn(5); k > 0; k-- {
		switch rng.Intn(6) {
		case 0, 1, 2: // a coupling: total = sum of parts
			parts := []smt.LinExpr{term(), smt.V(pick())}
			if rng.Intn(2) == 0 {
				parts = append(parts, smt.V(pick()))
			}
			rs = append(rs, smt.Eq(smt.Sum(parts...), smt.V(pick())))
		case 3:
			rs = append(rs, smt.Le(term(), term().AddConst(int64(rng.Intn(7)-3))))
		case 4:
			rs = append(rs, smt.Ne(smt.V(pick()), smt.V(pick())))
		default:
			ante := atom()
			if rng.Intn(3) == 0 {
				ante = smt.And(ante, atom())
			}
			rs = append(rs, smt.Implies(ante, atom()))
		}
	}
	rules := smt.And(rs...)
	s.Assert(rules)
	s.Push()
	stack := []smt.Formula{rules}
	pinned := map[smt.Var]bool{}
	for k := rng.Intn(3); k > 0; k-- {
		v := pick()
		lo, hi := s.Bounds(v)
		eq := smt.Eq(smt.V(v), smt.C(lo+rng.Int63n(hi-lo+1)))
		s.Assert(eq)
		stack = append(stack, eq)
		pinned[v] = true
	}
	e := &Engine{program: &program{clauses: newClauseIndex(rules, s.NumVars())}, solver: s}
	// replace installs a fresh model of the stack, steered by a random range
	// on one variable so that it differs from the last one; false when the
	// stack has none.
	replace := func() bool {
		v := pick()
		lo, hi := s.Bounds(v)
		r := s.CheckWith(smt.Ge(smt.V(v), smt.C(lo+rng.Int63n(hi-lo+1))))
		if r.Status != smt.Sat {
			if r = s.Check(); r.Status != smt.Sat {
				return false
			}
		}
		e.noteSolverModel(r.Model)
		return true
	}
	if !replace() {
		return
	}
	for step := 1 + rng.Intn(8); step > 0; step-- {
		if rng.Intn(4) == 0 {
			if !replace() {
				return
			}
			checkClauseState(t, e)
			continue
		}
		var free []smt.Var
		for _, v := range vars {
			if lo, hi, _ := s.BaseBounds(v); !pinned[v] && lo < hi {
				free = append(free, v)
			}
		}
		if len(free) == 0 {
			return
		}
		v := free[rng.Intn(len(free))]
		lo, hi, _ := s.BaseBounds(v)
		x := lo + rng.Int63n(hi-lo+1)
		if x == e.lastModel[v] {
			continue
		}
		asserted := rng.Intn(2) == 0
		if asserted {
			eq := smt.Eq(smt.V(v), smt.C(x))
			s.Assert(eq)
			stack = append(stack, eq)
			pinned[v] = true
		}
		before := append([]int64(nil), e.lastModel...)
		if !e.patchValue(v, x) {
			if !reflect.DeepEqual(e.lastModel, before) {
				t.Fatalf("failed patch %v := %d left the model changed: %v, was %v\nrules %s",
					v, x, e.lastModel, before, smt.FormulaString(rules))
			}
			checkClauseState(t, e)
			refused++
			if asserted && !replace() {
				return
			}
			checkClauseState(t, e)
			continue
		}
		m := map[smt.Var]int64{}
		for u, val := range e.lastModel {
			m[smt.Var(u)] = val
			if dlo, dhi := s.Bounds(smt.Var(u)); val < dlo || val > dhi {
				t.Fatalf("patch %v := %d moved %v to %d, outside its domain [%d,%d]", v, x, u, val, dlo, dhi)
			}
		}
		if holds, err := smt.EvalFormula(smt.And(stack...), m); err != nil || !holds || m[v] != x {
			t.Fatalf("patch %v := %d accepted model %v (was %v), which breaks the stack\nstack %s",
				v, x, e.lastModel, before, smt.FormulaString(smt.And(stack...)))
		}
		checkClauseState(t, e)
		accepted++
		if e.nMoves-1 >= 2 {
			multi++
		}
	}
	return
}

// checkClauseState fails t unless e's clause state, when valid, equals a
// rebuild from scratch under lastModel: every residual, every conjunct's
// true count and the broken count.
func checkClauseState(t *testing.T, e *Engine) {
	t.Helper()
	got := &e.repairState
	if !got.valid {
		return
	}
	var want clauseState
	want.rebuild(e.clauses, e.lastModel)
	if !reflect.DeepEqual(got.resid, want.resid) || !reflect.DeepEqual(got.nTrue, want.nTrue) || got.broken != want.broken {
		t.Fatalf("clause state drifted from its model %v:\nresiduals %v, true counts %v, %d broken\nrebuilt   %v, true counts %v, %d broken",
			e.lastModel, got.resid, got.nTrue, got.broken, want.resid, want.nTrue, want.broken)
	}
}

// TestPatchValueSound is the model-repair soundness gate (DESIGN.md §6): a
// patch the repair accepts is a model of the whole stack, a patch it
// refuses leaves the model untouched, and the incremental clause state
// always equals a rebuild. It also checks the draws reach multi-move
// repairs, so the gate covers the chains the decoder relies on.
func TestPatchValueSound(t *testing.T) {
	var ok, fail, multi int
	for seed := int64(0); seed < 20000; seed++ {
		a, m, r := repairTrial(t, rand.New(rand.NewSource(seed)))
		ok, multi, fail = ok+a, multi+m, fail+r
	}
	t.Logf("%d accepted (%d moving ≥ 2 variables), %d refused", ok, multi, fail)
	if ok < 1000 || fail < 200 || multi < 100 {
		t.Errorf("draws too one-sided to gate the repair: %d accepted, %d with ≥ 2 moves, %d refused", ok, multi, fail)
	}
}

// FuzzPatchValueSound runs the soundness gate's trial — one engine's
// sequence of patches and model replacements — on fuzzed seeds.
func FuzzPatchValueSound(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		repairTrial(t, rand.New(rand.NewSource(seed)))
	})
}
