package smt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPushPopEquivalence: checking under Push(f); Check(); Pop() must agree
// with CheckWith(f), and the assertion stack must be fully restored — the
// incrementality contract the LeJIT engine relies on (one frame per record).
func TestPushPopEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		s := NewSolver()
		vars := []Var{s.NewVar("a", 0, 6), s.NewVar("b", 0, 6), s.NewVar("c", 0, 6)}
		base := randFormula(rng, vars, 2)
		extra := randFormula(rng, vars, 2)
		s.Assert(base)

		want := s.CheckWith(extra)

		s.Push()
		s.Assert(extra)
		got := s.Check()
		s.Pop()

		if got.Status != want.Status {
			t.Fatalf("trial %d: push/pop %v vs checkwith %v for %s + %s",
				trial, got.Status, want.Status, FormulaString(base), FormulaString(extra))
		}
		if s.NumAssertions() != 1 {
			t.Fatalf("trial %d: %d assertions after pop, want 1", trial, s.NumAssertions())
		}
		// And the popped frame must no longer constrain anything.
		after := s.Check()
		baseline := func() Status {
			s2 := NewSolver()
			for range vars {
				s2.NewVar("v", 0, 6)
			}
			s2.Assert(base)
			return s2.Check().Status
		}()
		if after.Status != baseline {
			t.Fatalf("trial %d: post-pop status %v, fresh-solver %v", trial, after.Status, baseline)
		}
	}
}

// TestNestedPushPop exercises multi-level frames.
func TestNestedPushPop(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 100)
	s.Assert(Ge(V(x), C(10))) // level 0: x ≥ 10
	s.Push()
	s.Assert(Le(V(x), C(50))) // level 1: x ≤ 50
	s.Push()
	s.Assert(Eq(V(x), C(75))) // level 2: contradiction with level 1
	if r := s.Check(); r.Status != Unsat {
		t.Fatalf("level 2: %v, want unsat", r.Status)
	}
	s.Pop()
	r := s.Check()
	if r.Status != Sat || r.Model[x] < 10 || r.Model[x] > 50 {
		t.Fatalf("level 1: %v model %v", r.Status, r.Model)
	}
	s.Pop()
	r = s.Check()
	if r.Status != Sat || r.Model[x] < 10 {
		t.Fatalf("level 0: %v model %v", r.Status, r.Model)
	}
}

// TestSolverSequenceProperty drives a random interleaving of assert, push,
// pop, and check against a naive reference implementation of the assertion
// stack.
func TestSolverSequenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		s := NewSolver()
		vars := []Var{s.NewVar("a", 0, 5), s.NewVar("b", 0, 5)}
		type frame struct{ fs []Formula }
		ref := []frame{{}}
		for op := 0; op < 20; op++ {
			switch rng.Intn(4) {
			case 0: // assert
				f := randFormula(rng, vars, 2)
				s.Assert(f)
				ref[len(ref)-1].fs = append(ref[len(ref)-1].fs, f)
			case 1: // push
				s.Push()
				ref = append(ref, frame{})
			case 2: // pop
				if len(ref) > 1 {
					s.Pop()
					ref = ref[:len(ref)-1]
				}
			default: // check against brute force over all active formulas
				var active []Formula
				for _, fr := range ref {
					active = append(active, fr.fs...)
				}
				got := s.Check()
				want := bruteSat(And(active...), vars, 5)
				if (got.Status == Sat) != want {
					t.Fatalf("trial %d op %d: solver %v, brute sat=%v", trial, op, got.Status, want)
				}
			}
		}
	}
}

// TestVarBoundsRespectedInModels: models never step outside declared
// domains, even for unconstrained variables.
func TestVarBoundsRespectedInModels(t *testing.T) {
	f := func(lo8 int8, span uint8) bool {
		lo := int64(lo8)
		hi := lo + int64(span%50)
		s := NewSolver()
		v := s.NewVar("v", lo, hi)
		u := s.NewVar("unconstrained", lo, hi)
		s.Assert(Ge(V(v), C(lo))) // trivially true, forces v into the store
		r := s.Check()
		if r.Status != Sat {
			return false
		}
		return r.Model[v] >= lo && r.Model[v] <= hi && r.Model[u] >= lo && r.Model[u] <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
