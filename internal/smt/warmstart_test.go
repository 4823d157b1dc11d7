package smt

import (
	"math/rand"
	"testing"
)

// TestEpochAdvances pins the epoch contract: NewVar, Assert, and Pop each
// move the epoch off the current one; Check and CheckWith never do. The
// witness model in internal/core keys on this, so a silent change here would
// make a stale model look fresh.
func TestEpochAdvances(t *testing.T) {
	s := NewSolver()
	e0 := s.Epoch()
	x := s.NewVar("x", 0, 10)
	if s.Epoch() == e0 {
		t.Error("NewVar did not advance the epoch")
	}
	e1 := s.Epoch()
	s.Assert(Ge(V(x), C(2)))
	if s.Epoch() == e1 {
		t.Error("Assert did not advance the epoch")
	}
	e2 := s.Epoch()
	s.Check()
	s.CheckWith(Le(V(x), C(8)))
	if s.Epoch() != e2 {
		t.Errorf("Check/CheckWith moved the epoch %d -> %d", e2, s.Epoch())
	}
	s.Push()
	s.Assert(Le(V(x), C(5)))
	e3 := s.Epoch()
	s.Pop()
	if s.Epoch() == e3 {
		t.Error("Pop did not advance the epoch")
	}
}

// TestPopRestoresPushEpoch pins what keeps internal/core's witness model
// warm across records: after nested Push/Assert/Pop, each level's Pop
// returns exactly the epoch the solver had before its Push, while a NewVar
// inside a frame makes that frame's Pop yield an epoch never seen before
// (the variable set differs, so no memo keyed on an old epoch may match).
func TestPopRestoresPushEpoch(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 100)
	s.Assert(Ge(V(x), C(10)))
	seen := map[uint64]bool{s.Epoch(): true}
	var before []uint64
	for depth := 0; depth < 3; depth++ {
		before = append(before, s.Epoch())
		s.Push()
		s.Assert(Le(V(x), C(int64(90-depth))))
		seen[s.Epoch()] = true
		s.Check()
	}
	for depth := 2; depth >= 0; depth-- {
		s.Pop()
		if got := s.Epoch(); got != before[depth] {
			t.Fatalf("Pop of level %d: epoch %d, want the pre-Push epoch %d", depth, got, before[depth])
		}
	}
	if r := s.CheckWith(Eq(V(x), C(100))); r.Status != Sat {
		t.Fatalf("CheckWith(x=100) after the pops = %v, want sat", r.Status)
	}

	// A NewVar inside a frame: the popped state has a variable the pushed
	// one lacked, so its epoch is fresh — and so is the next such Pop's.
	for i := 0; i < 2; i++ {
		s.Push()
		y := s.NewVar("y", 0, 5)
		seen[s.Epoch()] = true
		s.Assert(Ge(V(y), C(1)))
		seen[s.Epoch()] = true
		s.Pop()
		if got := s.Epoch(); seen[got] {
			t.Fatalf("Pop of a frame with a NewVar reused epoch %d", got)
		}
		seen[s.Epoch()] = true
		if lo, hi, ok := s.BaseBounds(y); !ok || lo != 0 || hi != 5 {
			t.Fatalf("BaseBounds(y) = [%d,%d] ok=%v, want [0,5] true", lo, hi, ok)
		}
	}
}

// TestWarmStartStats checks that the propagated base store is built once per
// epoch and reused by every subsequent check in that epoch.
func TestWarmStartStats(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 100)
	y := s.NewVar("y", 0, 100)
	s.Assert(Eq(V(x).Add(V(y)), C(50)))

	for i := int64(0); i < 5; i++ {
		s.CheckWith(Ge(V(x), C(i*10)))
	}
	st := s.Stats()
	if st.BaseBuilds != 1 {
		t.Errorf("BaseBuilds = %d after 5 checks in one epoch, want 1", st.BaseBuilds)
	}
	if st.WarmStarts != 4 {
		t.Errorf("WarmStarts = %d, want 4", st.WarmStarts)
	}

	// A new assertion opens a new epoch: exactly one more build.
	s.Assert(Le(V(x), C(70)))
	s.Check()
	s.CheckWith(Ge(V(y), C(10)))
	st = s.Stats()
	if st.BaseBuilds != 2 {
		t.Errorf("BaseBuilds = %d after assert + 2 checks, want 2", st.BaseBuilds)
	}
	if st.WarmStarts != 5 {
		t.Errorf("WarmStarts = %d, want 5", st.WarmStarts)
	}
}

// TestWarmStartPopInvalidates makes sure Pop discards the memoized base:
// a check after Pop must not see constraints from the popped frame.
func TestWarmStartPopInvalidates(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 10)
	s.Push()
	s.Assert(Ge(V(x), C(8)))
	if r := s.CheckWith(Le(V(x), C(3))); r.Status != Unsat {
		t.Fatalf("x>=8 && x<=3: status %v, want unsat", r.Status)
	}
	s.Pop()
	if r := s.CheckWith(Le(V(x), C(3))); r.Status != Sat {
		t.Fatalf("after Pop, x<=3: status %v, want sat", r.Status)
	}
}

// TestWarmStartEquivalence fuzzes the incremental path against brute force:
// one long-lived solver answering many CheckWith probes over a mutating
// assertion stack must agree with exhaustive enumeration every time.
func TestWarmStartEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const dom = 5
	for trial := 0; trial < 60; trial++ {
		s := NewSolver()
		vars := []Var{s.NewVar("a", 0, dom), s.NewVar("b", 0, dom)}
		var stack []Formula // mirrors the solver's assertion stack
		base := randFormula(rng, vars, 2)
		s.Assert(base)
		stack = append(stack, base)

		for step := 0; step < 8; step++ {
			switch rng.Intn(4) {
			case 0: // grow the stack
				f := randFormula(rng, vars, 1)
				s.Push()
				s.Assert(f)
				stack = append(stack, f)
			case 1: // shrink it, if we can
				if len(stack) > 1 {
					s.Pop()
					stack = stack[:len(stack)-1]
				}
			}
			probe := randFormula(rng, vars, 1)
			got := s.CheckWith(probe)
			want := bruteSat(And(append(append([]Formula{}, stack...), probe)...), vars, dom)
			switch got.Status {
			case Sat:
				if !want {
					t.Fatalf("trial %d step %d: solver sat, brute unsat", trial, step)
				}
			case Unsat:
				if want {
					t.Fatalf("trial %d step %d: solver unsat, brute sat", trial, step)
				}
			default:
				t.Fatalf("trial %d step %d: unexpected status %v", trial, step, got.Status)
			}
		}
	}
}
