package smt

import (
	"math/rand"
	"reflect"
	"testing"
)

// randRowFormula builds one conjunct of the kind mined rule sets are made of:
// a pairwise row a·x ≤ b·y + s, a sum coupling, or an implication between
// two single-variable bounds.
func randRowFormula(rng *rand.Rand, vars []Var, dom int64) Formula {
	pick := func() Var { return vars[rng.Intn(len(vars))] }
	coef := func() int64 { return []int64{1, 2, 3}[rng.Intn(3)] }
	switch rng.Intn(5) {
	case 0, 1:
		return Le(CV(coef(), pick()), CV(coef(), pick()).AddConst(int64(rng.Intn(int(dom)))))
	case 2:
		var sum LinExpr
		for _, v := range vars[:2+rng.Intn(len(vars)-1)] {
			sum = sum.Add(V(v))
		}
		if rng.Intn(2) == 0 {
			return Eq(sum, V(pick()).AddConst(int64(rng.Intn(int(dom)))))
		}
		return Le(sum, C(int64(rng.Intn(int(dom)*len(vars)))))
	case 3:
		return Implies(Gt(V(pick()), C(int64(rng.Intn(int(dom))))), Ge(V(pick()), C(int64(rng.Intn(int(dom))))))
	default:
		return Implies(Gt(V(pick()), C(int64(rng.Intn(int(dom))))), Le(CV(coef(), pick()), V(pick()).AddConst(int64(rng.Intn(int(dom))))))
	}
}

// enumerate calls fn with every assignment of vars over [0,dom]^n.
func enumerate(vars []Var, dom int64, fn func(map[Var]int64)) {
	assign := make(map[Var]int64, len(vars))
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			fn(assign)
			return
		}
		for x := int64(0); x <= dom; x++ {
			assign[vars[i]] = x
			rec(i + 1)
		}
	}
	rec(0)
}

// TestOraclePatternAgainstBruteForce drives the solver the way the decoder's
// slot oracle does — rules asserted once, a frame pushed, some variables
// pinned, then range probes on a free variable — and checks against
// enumeration everything the entailment-filtered base store must preserve:
// every range probe's answer, BaseBounds as a superset of the projection,
// and that each asserted row the store dropped holds at every point of its
// box (which is what makes dropping it invisible to any probe).
func TestOraclePatternAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1818))
	const dom = 5
	dropped, feasibleStacks := 0, 0
	for trial := 0; trial < 120; trial++ {
		s := NewSolver()
		vars := make([]Var, 3+rng.Intn(2))
		for i := range vars {
			vars[i] = s.NewVar("v", 0, dom)
		}
		var fs []Formula
		for i := 0; i < 3+rng.Intn(6); i++ {
			fs = append(fs, randRowFormula(rng, vars, dom))
		}
		s.Assert(And(fs...))
		for rec := 0; rec < 3; rec++ {
			s.Push()
			stack := append([]Formula(nil), fs...)
			perm := rng.Perm(len(vars))
			free := vars[perm[0]]
			for _, i := range perm[1 : 1+rng.Intn(len(vars)-1)] {
				pin := Eq(V(vars[i]), C(int64(rng.Intn(dom+1))))
				s.Assert(pin)
				stack = append(stack, pin)
			}
			all := And(stack...)

			// The projection of the feasible set onto the free variable.
			feasible := make([]bool, dom+1)
			any := false
			enumerate(vars, dom, func(m map[Var]int64) {
				if ok, _ := EvalFormula(all, m); ok {
					feasible[m[free]], any = true, true
				}
			})
			lo, hi, ok := s.BaseBounds(free)
			if !ok && any {
				t.Fatalf("trial %d: BaseBounds reports a conflict on a satisfiable stack", trial)
			}
			if any {
				feasibleStacks++
			}
			for x := int64(0); x <= dom; x++ {
				if feasible[x] && (x < lo || x > hi) {
					t.Fatalf("trial %d: feasible value %d outside BaseBounds [%d,%d]", trial, x, lo, hi)
				}
			}
			for a := int64(0); a <= dom; a++ {
				for b := a; b <= dom; b++ {
					want := false
					for x := a; x <= b; x++ {
						want = want || feasible[x]
					}
					r := s.CheckWith(Ge(V(free), C(a)), Le(V(free), C(b)))
					if r.Status == Unknown || (r.Status == Sat) != want {
						t.Fatalf("trial %d: CheckWith(%d ≤ v ≤ %d) = %v, enumeration says %v", trial, a, b, r.Status, want)
					}
					if r.Status == Sat {
						if ok, _ := EvalFormula(all, r.Model); !ok || r.Model[free] < a || r.Model[free] > b {
							t.Fatalf("trial %d: model %v violates the stack or the probed range", trial, r.Model)
						}
					}
				}
			}

			// Every asserted row missing from the store is entailed by its box.
			base := s.currentBase()
			if !base.conflict {
				kept := map[*term]bool{}
				for i := range base.cons {
					kept[&base.cons[i].terms[0]] = true
				}
				for i := range s.compiled {
					for _, c := range s.compiled[i].cons {
						if kept[&c.terms[0]] {
							continue
						}
						dropped++
						enumerate(vars, dom, func(m map[Var]int64) {
							for _, v := range vars {
								if m[v] < base.dom.lo[v] || m[v] > base.dom.hi[v] {
									return
								}
							}
							sum, _ := LinExpr{terms: c.terms}.Eval(m)
							if sum > c.rhs || (c.eq && sum != c.rhs) {
								t.Fatalf("trial %d: dropped row %+v fails at %v inside the base box", trial, c, m)
							}
						})
					}
				}
			}
			s.Pop()
		}
	}
	if dropped < 100 || feasibleStacks < 50 {
		t.Fatalf("generator too tame: %d dropped rows, %d feasible stacks", dropped, feasibleStacks)
	}
}

// TestDerivedBaseMatchesFromScratch walks random assert / Push / Pop /
// CheckWith sequences, forcing a base store at every height on
// the way so that each one is derived from a parent, and compares it with
// the store a fresh solver builds in one go from the same stack: bounds
// consistency has a single fixpoint, so domains, conflict and taint must all
// agree.
//
// Each solver is long-lived — it serves 50 trials, each declaring new
// variables and emptying the stack at its end — so every Check after the
// first runs on scratch and every build on recycled stores that held other
// stacks, over other variables, before. Each CheckWith is replayed on a new
// solver that declares the same variables and performs the trial's
// operations (builds included, so every store has the same parent): it
// must return the same Status, the same Model and search the same number of
// nodes.
func TestDerivedBaseMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	const dom = 12
	conflicts, tainted, checks, branched := 0, 0, 0, 0
	var s *Solver
	declared := 0
	for trial := 0; trial < 300; trial++ {
		if trial%50 == 0 {
			s, declared = NewSolver(), 0
		}
		vars := make([]Var, 3+rng.Intn(3))
		for i := range vars {
			vars[i] = s.NewVar("v", 0, dom)
		}
		declared += len(vars)
		// log holds the trial's operations; replay performs them on a new
		// solver with s's variables.
		var log []func(*Solver)
		do := func(op func(*Solver)) {
			op(s)
			log = append(log, op)
		}
		replay := func() *Solver {
			r := NewSolver()
			for i := 0; i < declared; i++ {
				r.NewVar("v", 0, dom)
			}
			for _, op := range log {
				op(r)
			}
			return r
		}
		// The trial runs inside an outer frame at height 0, which the Pop at
		// its end empties. A frame at 0 never parents a store (see baseAt),
		// so the replays, which do not open it, derive the same stores.
		s.Push()
		var stack []Formula
		var marks []int
		for step := 0; step < 14; step++ {
			switch op := rng.Intn(12); {
			case op < 5:
				var f Formula
				switch rng.Intn(3) {
				case 0:
					f = Eq(V(vars[rng.Intn(len(vars))]), C(int64(rng.Intn(dom+1))))
				case 1:
					f = randRowFormula(rng, vars, dom)
				default:
					f = randomFuzzFormula(rng, vars)
				}
				do(func(r *Solver) { r.Assert(f) })
				stack = append(stack, f)
			case op < 7:
				do((*Solver).Push)
				marks = append(marks, len(stack))
			case op < 9:
				if len(marks) > 0 {
					do((*Solver).Pop)
					stack = stack[:marks[len(marks)-1]]
					marks = marks[:len(marks)-1]
				}
			default:
				var extra []Formula
				switch rng.Intn(4) {
				case 0:
					v, a := vars[rng.Intn(len(vars))], int64(rng.Intn(dom+1))
					extra = []Formula{Ge(V(v), C(a)), Le(V(v), C(a+int64(rng.Intn(4))))}
				case 1:
					extra = []Formula{randRowFormula(rng, vars, dom)}
				case 2:
					extra = []Formula{randomFuzzFormula(rng, vars), randomFuzzFormula(rng, vars)}
				}
				before := s.Stats().Nodes
				got := s.CheckWith(extra...)
				gotNodes := s.Stats().Nodes - before
				ref := replay()
				before = ref.Stats().Nodes
				want := ref.CheckWith(extra...)
				if wantNodes := ref.Stats().Nodes - before; got.Status != want.Status || gotNodes != wantNodes || !reflect.DeepEqual(got.Model, want.Model) {
					t.Fatalf("trial %d step %d: long-lived solver %v after %d nodes (model %v), new solver replaying the trial %v after %d nodes (model %v)",
						trial, step, got.Status, gotNodes, got.Model, want.Status, wantNodes, want.Model)
				}
				log = append(log, func(r *Solver) { r.CheckWith(extra...) })
				checks++
				if gotNodes > 2 {
					branched++
				}
				continue
			}
			if rng.Intn(3) == 0 {
				continue // leave this height unbuilt: the next one derives across several assertions
			}
			do(func(r *Solver) { r.currentBase() })
			ref := NewSolver()
			for i := 0; i < declared; i++ {
				ref.NewVar("v", 0, dom)
			}
			for _, f := range stack {
				ref.Assert(f)
			}
			got, want := s.currentBase(), ref.currentBase()
			if got.conflict != want.conflict {
				t.Fatalf("trial %d step %d: derived conflict=%v, from scratch %v", trial, step, got.conflict, want.conflict)
			}
			if want.conflict {
				conflicts++
				continue
			}
			for _, v := range vars {
				glo, ghi, _ := s.BaseBounds(v)
				wlo, whi, _ := ref.BaseBounds(v)
				if glo != wlo || ghi != whi {
					t.Fatalf("trial %d step %d: derived bounds of %d = [%d,%d], from scratch [%d,%d]", trial, step, v, glo, ghi, wlo, whi)
				}
				gt, wt := s.VarDisjunctionTainted(v), ref.VarDisjunctionTainted(v)
				if gt != wt {
					t.Fatalf("trial %d step %d: derived taint of %d = %v, from scratch %v", trial, step, v, gt, wt)
				}
				if wt {
					tainted++
				}
			}
		}
		// Empty the stack for the next trial: the popped stores go to the
		// free list.
		for range marks {
			s.Pop()
		}
		s.Pop()
	}
	if conflicts < 20 || tainted < 200 || checks < 300 || branched < 50 {
		t.Fatalf("generator too tame: %d conflicting stacks, %d tainted variables, %d checks (%d branching)", conflicts, tainted, checks, branched)
	}
}
