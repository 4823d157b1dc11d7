package smt

import (
	"math/rand"
	"slices"
	"testing"
)

func TestCheckTrivial(t *testing.T) {
	s := NewSolver()
	if r := s.Check(); r.Status != Sat {
		t.Fatalf("empty solver: %v, want sat", r.Status)
	}
	s.Assert(False)
	if r := s.Check(); r.Status != Unsat {
		t.Fatalf("assert false: %v, want unsat", r.Status)
	}
}

func TestCheckSimpleBounds(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 10)
	s.Assert(Ge(V(x), C(4)))
	s.Assert(Le(V(x), C(6)))
	r := s.Check()
	if r.Status != Sat {
		t.Fatalf("status %v, want sat", r.Status)
	}
	if v := r.Model[x]; v < 4 || v > 6 {
		t.Errorf("model x = %d, want in [4,6]", v)
	}
}

func TestCheckConflictingBounds(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 10)
	s.Assert(Ge(V(x), C(7)))
	s.Assert(Le(V(x), C(3)))
	if r := s.Check(); r.Status != Unsat {
		t.Fatalf("status %v, want unsat", r.Status)
	}
}

func TestCheckSumEquality(t *testing.T) {
	// The paper's R2: Σ I_t = TotalIngress.
	s := NewSolver()
	var is []Var
	var sum LinExpr
	for i := 0; i < 5; i++ {
		v := s.NewVar("I", 0, 60)
		is = append(is, v)
		sum = sum.Add(V(v))
	}
	s.Assert(Eq(sum, C(100)))
	r := s.Check()
	if r.Status != Sat {
		t.Fatalf("status %v, want sat", r.Status)
	}
	var total int64
	for _, v := range is {
		total += r.Model[v]
	}
	if total != 100 {
		t.Errorf("model sum = %d, want 100", total)
	}
}

func TestCheckSumEqualityInfeasible(t *testing.T) {
	s := NewSolver()
	var sum LinExpr
	for i := 0; i < 5; i++ {
		sum = sum.Add(V(s.NewVar("I", 0, 10)))
	}
	s.Assert(Eq(sum, C(51))) // max possible is 50
	if r := s.Check(); r.Status != Unsat {
		t.Fatalf("status %v, want unsat", r.Status)
	}
}

func TestCheckImplication(t *testing.T) {
	// The paper's R3: Congestion > 0 ⟹ max_t I_t ≥ BW/2.
	const bw = 60
	s := NewSolver()
	cong := s.NewVar("Congestion", 0, 100)
	var is []Var
	for i := 0; i < 5; i++ {
		is = append(is, s.NewVar("I", 0, bw))
	}
	var burst []Formula
	for _, v := range is {
		burst = append(burst, Ge(V(v), C(bw/2)))
	}
	s.Assert(Implies(Gt(V(cong), C(0)), Or(burst...)))

	// With congestion forced positive and all I small: unsat.
	s.Push()
	s.Assert(Ge(V(cong), C(1)))
	for _, v := range is {
		s.Assert(Le(V(v), C(bw/2-1)))
	}
	if r := s.Check(); r.Status != Unsat {
		t.Fatalf("congested but no burst: %v, want unsat", r.Status)
	}
	s.Pop()

	// With congestion zero the implication is vacuous: sat.
	s.Push()
	s.Assert(Eq(V(cong), C(0)))
	for _, v := range is {
		s.Assert(Le(V(v), C(5)))
	}
	if r := s.Check(); r.Status != Sat {
		t.Fatalf("uncongested: %v, want sat", r.Status)
	}
	s.Pop()
}

func TestCheckNE(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 3, 3)
	s.Assert(Ne(V(x), C(3)))
	if r := s.Check(); r.Status != Unsat {
		t.Fatalf("x=3 && x!=3: %v, want unsat", r.Status)
	}

	s2 := NewSolver()
	y := s2.NewVar("y", 0, 1)
	s2.Assert(Ne(V(y), C(0)))
	r := s2.Check()
	if r.Status != Sat || r.Model[y] != 1 {
		t.Fatalf("y!=0 over [0,1]: %v model=%v, want sat y=1", r.Status, r.Model)
	}
}

func TestCheckEqualityDivisibility(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", -100, 100)
	s.Assert(Eq(CV(2, x), C(7))) // 2x = 7 has no integer solution
	if r := s.Check(); r.Status != Unsat {
		t.Fatalf("2x=7: %v, want unsat", r.Status)
	}
}

func TestCheckMultipleEqualities(t *testing.T) {
	// x + y = 10, x - y = 4  →  x = 7, y = 3.
	s := NewSolver()
	x := s.NewVar("x", 0, 100)
	y := s.NewVar("y", 0, 100)
	s.Assert(Eq(V(x).Add(V(y)), C(10)))
	s.Assert(Eq(V(x).Sub(V(y)), C(4)))
	r := s.Check()
	if r.Status != Sat {
		t.Fatalf("status %v, want sat", r.Status)
	}
	if r.Model[x] != 7 || r.Model[y] != 3 {
		t.Errorf("model (%d,%d), want (7,3)", r.Model[x], r.Model[y])
	}
}

func TestPushPop(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 10)
	s.Assert(Ge(V(x), C(2)))
	s.Push()
	s.Assert(Le(V(x), C(1)))
	if r := s.Check(); r.Status != Unsat {
		t.Fatal("pushed contradiction should be unsat")
	}
	s.Pop()
	if r := s.Check(); r.Status != Sat {
		t.Fatal("after pop should be sat again")
	}
	if n := s.NumAssertions(); n != 1 {
		t.Errorf("NumAssertions = %d, want 1", n)
	}
}

// NumAssertions reports the number of currently active assertions.
func (s *Solver) NumAssertions() int { return len(s.compiled) }

func TestPopWithoutPushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop without Push should panic")
		}
	}()
	NewSolver().Pop()
}

func TestNewVarEmptyDomainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewVar with lo>hi should panic")
		}
	}()
	NewSolver().NewVar("bad", 5, 4)
}

func TestCheckWithDoesNotMutate(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 10)
	before := s.NumAssertions()
	s.CheckWith(Eq(V(x), C(5)))
	if s.NumAssertions() != before {
		t.Error("CheckWith must not change the assertion stack")
	}
	// And the extra constraint must actually apply.
	r := s.CheckWith(Eq(V(x), C(5)))
	if r.Status != Sat || r.Model[x] != 5 {
		t.Errorf("CheckWith(x=5): %v x=%d", r.Status, r.Model[x])
	}
}

func TestModelSatisfiesAllAssertions(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 50)
	y := s.NewVar("y", 0, 50)
	z := s.NewVar("z", 0, 50)
	fs := []Formula{
		Eq(Sum(V(x), V(y), V(z)), C(60)),
		Implies(Gt(V(x), C(10)), Ge(V(y), C(20))),
		Or(Le(V(z), C(5)), Ge(V(z), C(45))),
		Ne(V(x), V(y)),
	}
	for _, f := range fs {
		s.Assert(f)
	}
	r := s.Check()
	if r.Status != Sat {
		t.Fatalf("status %v, want sat", r.Status)
	}
	for _, f := range fs {
		ok, err := EvalFormula(f, r.Model)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("model violates %s", FormulaString(f))
		}
	}
}

func TestBudgetReturnsUnknown(t *testing.T) {
	s := NewSolver()
	s.MaxNodes = 1
	var sum LinExpr
	for i := 0; i < 8; i++ {
		sum = sum.Add(V(s.NewVar("x", 0, 1000)))
	}
	s.Assert(Eq(sum, C(4001)))
	s.Assert(Ne(V(Var(0)), V(Var(1))))
	r := s.Check()
	if r.Status == Sat && r.Model == nil {
		t.Error("sat without model")
	}
	// With MaxNodes=1 this must not claim unsat incorrectly; Unknown or a
	// genuine quick answer are both acceptable, but a wrong Unsat is not.
	if r.Status == Unsat {
		// Verify by brute reasoning: 8 vars in [0,1000] summing to 4001
		// with x0 != x1 is clearly satisfiable.
		t.Error("budget-limited solver returned a wrong unsat")
	}
}

// TestRandomAgainstBruteForce cross-checks the solver against exhaustive
// enumeration on random small problems — the core soundness/completeness
// property test.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		nv := 2 + rng.Intn(2) // 2..3 vars
		dom := int64(3 + rng.Intn(3))
		s := NewSolver()
		vars := make([]Var, nv)
		for i := range vars {
			vars[i] = s.NewVar("v", 0, dom)
		}
		f := randFormula(rng, vars, 3)
		s.Assert(f)
		r := s.Check()

		want := bruteSat(f, vars, dom)
		switch r.Status {
		case Sat:
			if !want {
				t.Fatalf("trial %d: solver sat, brute unsat: %s", trial, FormulaString(f))
			}
			ok, err := EvalFormula(f, r.Model)
			if err != nil || !ok {
				t.Fatalf("trial %d: returned model violates formula %s (model %v)", trial, FormulaString(f), r.Model)
			}
		case Unsat:
			if want {
				t.Fatalf("trial %d: solver unsat, brute sat: %s", trial, FormulaString(f))
			}
		case Unknown:
			t.Fatalf("trial %d: unexpected unknown on tiny problem", trial)
		}
	}
}

// randFormula builds a random formula of bounded depth over the given vars.
func randFormula(rng *rand.Rand, vars []Var, depth int) Formula {
	if depth == 0 || rng.Intn(3) == 0 {
		// Random atom: c1*v1 + c2*v2 ⋈ k
		e := C(int64(rng.Intn(7) - 3))
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				e = e.Add(CV(int64(rng.Intn(5)-2), v))
			}
		}
		ops := []func(a, b LinExpr) Formula{Le, Lt, Ge, Gt, Eq, Ne}
		return ops[rng.Intn(len(ops))](e, C(int64(rng.Intn(9)-2)))
	}
	a := randFormula(rng, vars, depth-1)
	b := randFormula(rng, vars, depth-1)
	switch rng.Intn(4) {
	case 0:
		return And(a, b)
	case 1:
		return Or(a, b)
	case 2:
		return Implies(a, b)
	default:
		return Not(a)
	}
}

// bruteSat exhaustively enumerates assignments over [0,dom]^n.
func bruteSat(f Formula, vars []Var, dom int64) bool {
	assign := make(map[Var]int64, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			ok, err := EvalFormula(f, assign)
			return err == nil && ok
		}
		for v := int64(0); v <= dom; v++ {
			assign[vars[i]] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func TestStatsAccumulate(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", 0, 100)
	s.Assert(Ge(V(x), C(10)))
	s.Check()
	s.Check()
	st := s.Stats()
	if st.Checks != 2 {
		t.Errorf("Checks = %d, want 2", st.Checks)
	}
	if st.Nodes == 0 {
		t.Error("Nodes should be nonzero after checks")
	}
}

func TestNegativeDomains(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x", -50, 50)
	y := s.NewVar("y", -50, 50)
	s.Assert(Eq(V(x).Add(V(y)), C(-30)))
	s.Assert(Le(V(x), C(-40)))
	r := s.Check()
	if r.Status != Sat {
		t.Fatalf("status %v, want sat", r.Status)
	}
	if r.Model[x]+r.Model[y] != -30 || r.Model[x] > -40 {
		t.Errorf("bad model %v", r.Model)
	}
}

// feasibleValues lists the values of v in [lo, hi] that CheckWith finds a
// completion for: the feasible set the enforcer's per-value queries see.
func feasibleValues(s *Solver, v Var, lo, hi int64) []int64 {
	var out []int64
	for x := lo; x <= hi; x++ {
		if s.CheckWith(Eq(V(v), C(x))).Status == Sat {
			out = append(out, x)
		}
	}
	return out
}

// paperIngress declares I0..I4 in [0, bw] with Σ I = 100 and pins the prefix
// I0=20, I1=15, I2=25, so I3 + I4 = 40.
func paperIngress(s *Solver, bw int64) []Var {
	var is []Var
	var sum LinExpr
	for i := 0; i < 5; i++ {
		v := s.NewVar("I", 0, bw)
		is = append(is, v)
		sum = sum.Add(V(v))
	}
	s.Assert(Eq(sum, C(100)))
	s.Assert(Eq(V(is[0]), C(20)))
	s.Assert(Eq(V(is[1]), C(15)))
	s.Assert(Eq(V(is[2]), C(25)))
	return is
}

func TestFeasibleRangeWithSuffixLookahead(t *testing.T) {
	// LeJIT's core query: after fixing I0..I2, which values can I3 take such
	// that SOME I4 ∈ [0,60] still completes Σ I = 100? I3 ∈ [0, 40] (paper
	// Fig 1b step ②: 39 is valid, 70 is not).
	s := NewSolver()
	is := paperIngress(s, 60)
	got := feasibleValues(s, is[3], 0, 60)
	if len(got) != 41 || got[0] != 0 || got[40] != 40 {
		t.Errorf("I3 feasible at %v, want 0..40", got)
	}
}

func TestFeasibleRangeWithImplicationActive(t *testing.T) {
	// Same as above but with the paper's R3 active (Congestion > 0, no
	// burst generated yet): when choosing I3, either I3 itself bursts
	// (≥ 30) or I4 must. I4 = 40 - I3 ≥ 30 → I3 ≤ 10. So the feasible
	// set for I3 is [0,10] ∪ [30,40] — a hole inside the hull [0,40].
	const bw = 60
	s := NewSolver()
	is := paperIngress(s, bw)
	cong := s.NewVar("Congestion", 0, 100)
	var burst []Formula
	for _, v := range is {
		burst = append(burst, Ge(V(v), C(bw/2)))
	}
	s.Assert(Implies(Gt(V(cong), C(0)), Or(burst...)))
	s.Assert(Eq(V(cong), C(8)))
	var want []int64
	for x := int64(0); x <= 40; x++ {
		if x <= 10 || x >= 30 {
			want = append(want, x)
		}
	}
	if got := feasibleValues(s, is[3], 0, bw); !slices.Equal(got, want) {
		t.Errorf("I3 feasible at %v, want %v", got, want)
	}
}
