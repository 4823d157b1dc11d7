package smt

import (
	"math/rand"
	"testing"
)

func TestBaseBoundsTightens(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 100)
	y := s.NewVar("y", 0, 100)
	s.Assert(Le(V(x), C(40)))
	s.Assert(Ge(V(x).Sub(V(y)), C(10))) // x - y >= 10 → y <= 30

	lo, hi, ok := s.BaseBounds(x)
	if !ok || lo != 10 || hi != 40 {
		t.Errorf("BaseBounds(x) = [%d,%d] ok=%v, want [10,40] true", lo, hi, ok)
	}
	lo, hi, ok = s.BaseBounds(y)
	if !ok || lo != 0 || hi != 30 {
		t.Errorf("BaseBounds(y) = [%d,%d] ok=%v, want [0,30] true", lo, hi, ok)
	}
	// BaseBounds must never issue a solver check.
	if got := s.Stats().Checks; got != 0 {
		t.Errorf("BaseBounds performed %d checks", got)
	}

	// Over-approximation: no value outside BaseBounds is feasible (here the
	// bounds are attained, too).
	for v, want := range map[int64]Status{9: Unsat, 10: Sat, 40: Sat, 41: Unsat} {
		if st := s.CheckWith(Eq(V(x), C(v))).Status; st != want {
			t.Errorf("x = %d: %v, want %v against BaseBounds [10,40]", v, st, want)
		}
	}
}

func TestBaseBoundsConflict(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 10)
	s.Assert(Ge(V(x), C(20)))
	if _, _, ok := s.BaseBounds(x); ok {
		t.Error("BaseBounds reported feasible on a conflicting stack")
	}
	if !s.VarDisjunctionTainted(x) {
		t.Error("tainted must be conservative (true) on a conflicting stack")
	}
}

// TestDisjunctionTaintComponents pins the component semantics: a live
// disjunction taints every variable connected to it through constraints,
// and nothing else.
func TestDisjunctionTaintComponents(t *testing.T) {
	s := NewSolver()
	u := s.NewVar("u", 0, 100) // mentioned by the disjunction
	v := s.NewVar("v", 0, 100) // linked to u by an equality
	w := s.NewVar("w", 0, 100) // separate component
	s.Assert(Eq(V(v), V(u)))
	s.Assert(Or(Le(V(u), C(0)), Ge(V(u), C(10))))

	for _, tc := range []struct {
		name string
		x    Var
		want bool
	}{{"u", u, true}, {"v", v, true}, {"w", w, false}} {
		if got := s.VarDisjunctionTainted(tc.x); got != tc.want {
			t.Errorf("VarDisjunctionTainted(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}

	// The taint is real: v's feasible set has a hole at (0, 10).
	if r := s.CheckWith(Eq(V(v), C(5))); r.Status != Unsat {
		t.Fatalf("v=5 should be infeasible, got %v", r.Status)
	}
	if r := s.CheckWith(Eq(V(v), C(0))); r.Status != Sat {
		t.Fatalf("v=0 should be feasible, got %v", r.Status)
	}
	if r := s.CheckWith(Eq(V(v), C(10))); r.Status != Sat {
		t.Fatalf("v=10 should be feasible, got %v", r.Status)
	}
}

// TestTaintClearsWhenDisjunctionDecided mirrors the decoding situation the
// fast path exploits: once an assertion pins the disjunction's condition,
// base simplification resolves it and the taint disappears.
func TestTaintClearsWhenDisjunctionDecided(t *testing.T) {
	s := NewSolver()
	cong := s.NewVar("cong", 0, 50)
	i0 := s.NewVar("i0", 0, 100)
	// cong > 0 -> i0 >= 30, in NNF disjunction form.
	s.Assert(Or(Le(V(cong), C(0)), Ge(V(i0), C(30))))

	if !s.VarDisjunctionTainted(i0) {
		t.Fatal("i0 should be tainted while the implication is undecided")
	}

	s.Push()
	s.Assert(Eq(V(cong), C(0))) // antecedent false: disjunction entailed
	if s.VarDisjunctionTainted(i0) {
		t.Error("i0 still tainted after the disjunction became entailed")
	}
	s.Pop()

	s.Push()
	s.Assert(Eq(V(cong), C(7))) // antecedent true: unit-propagates i0 >= 30
	if s.VarDisjunctionTainted(i0) {
		t.Error("i0 still tainted after unit propagation resolved the disjunction")
	}
	if lo, _, ok := s.BaseBounds(i0); !ok || lo != 30 {
		t.Errorf("unit-propagated bound lo = %d ok=%v, want 30 true", lo, ok)
	}
	s.Pop()
}

// TestBaseSimplifyEquivalence fuzzes random stacks and confirms that base
// disjunction simplification never changes any CheckWith outcome relative to
// a fresh solver given the same formulas in one shot.
func TestBaseSimplifyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 150; iter++ {
		inc := NewSolver()
		nv := 2 + rng.Intn(3)
		vars := make([]Var, nv)
		for i := range vars {
			vars[i] = inc.NewVar("v", 0, int64(5+rng.Intn(20)))
		}
		var fs []Formula
		for i := 0; i < 1+rng.Intn(4); i++ {
			fs = append(fs, randomFuzzFormula(rng, vars))
		}
		for _, f := range fs {
			inc.Assert(f)
		}
		// Interleave probes so some base stores get built mid-stack.
		for p := 0; p < 3; p++ {
			e := V(vars[rng.Intn(nv)])
			q := And(Ge(e, C(int64(rng.Intn(10)))), Le(e, C(int64(10+rng.Intn(10)))))
			ref := NewSolver()
			for i := range vars {
				lo, hi := inc.Bounds(vars[i])
				ref.NewVar("v", lo, hi)
			}
			for _, f := range fs {
				ref.Assert(f)
			}
			// The reference path: one monolithic check, no reused base.
			want := ref.CheckWith(q).Status
			got := inc.CheckWith(q).Status
			if got != want {
				t.Fatalf("iter %d probe %d: incremental %v, reference %v", iter, p, got, want)
			}
		}
	}
}

// randomFuzzFormula builds a small random formula over vars, biased toward
// the shapes rule compilation emits (conjunctions, implications-as-or).
func randomFuzzFormula(rng *rand.Rand, vars []Var) Formula {
	atom := func() Formula {
		a := V(vars[rng.Intn(len(vars))])
		var b LinExpr
		if rng.Intn(2) == 0 {
			b = C(int64(rng.Intn(25)))
		} else {
			b = V(vars[rng.Intn(len(vars))])
		}
		switch rng.Intn(4) {
		case 0:
			return Le(a, b)
		case 1:
			return Ge(a, b)
		case 2:
			return Eq(a, b)
		default:
			return Ne(a, b)
		}
	}
	switch rng.Intn(4) {
	case 0:
		return atom()
	case 1:
		return And(atom(), atom())
	case 2:
		return Or(atom(), atom())
	default:
		return Or(atom(), And(atom(), atom()))
	}
}
