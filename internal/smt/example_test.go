package smt_test

import (
	"fmt"

	"repro/internal/smt"
)

// The paper's running example (§2.1): five fine-grained ingress values must
// sum to the observed total, stay under the link bandwidth, and — because
// ECN marks were seen — include a burst of at least half the bandwidth.
func Example() {
	s := smt.NewSolver()
	const bw = 60
	var is []smt.Var
	var sum smt.LinExpr
	for i := 0; i < 5; i++ {
		v := s.NewVar(fmt.Sprintf("I%d", i), 0, bw)
		is = append(is, v)
		sum = sum.Add(smt.V(v))
	}
	s.Assert(smt.Eq(sum, smt.C(100))) // R2: conservation
	var burst []smt.Formula
	for _, v := range is {
		burst = append(burst, smt.Ge(smt.V(v), smt.C(bw/2)))
	}
	s.Assert(smt.Or(burst...)) // R3 with congestion observed

	// Pin the values generated so far and ask what I3 may still become —
	// the LeJIT lookahead query (Fig 1b step ②).
	s.Assert(smt.Eq(smt.V(is[0]), smt.C(20)))
	s.Assert(smt.Eq(smt.V(is[1]), smt.C(15)))
	s.Assert(smt.Eq(smt.V(is[2]), smt.C(25)))

	// I3 may still take 0 through 40; 70 — the model's intent in Fig 1a —
	// and anything past 40 are infeasible.
	for _, v := range []int64{0, 40, 41, 70} {
		r := s.CheckWith(smt.Eq(smt.V(is[3]), smt.C(v)))
		fmt.Printf("I3=%d: %v\n", v, r.Status)
	}
	// Output:
	// I3=0: sat
	// I3=40: sat
	// I3=41: unsat
	// I3=70: unsat
}

// CheckWith asks about one candidate value without changing the assertions:
// the question the enforcer puts to the solver at every token.
func ExampleSolver_CheckWith() {
	s := smt.NewSolver()
	x := s.NewVar("x", 0, 100)
	y := s.NewVar("y", 0, 100)
	s.Assert(smt.Ge(smt.V(x).Add(smt.V(y)), smt.C(10)))
	s.Assert(smt.Le(smt.V(y), smt.C(4)))
	fmt.Println(s.CheckWith(smt.Eq(smt.V(x), smt.C(5))).Status)
	fmt.Println(s.CheckWith(smt.Eq(smt.V(x), smt.C(6))).Status)
	// Output:
	// unsat
	// sat
}

// Push/Pop scope assertions per decoded record.
func ExampleSolver_Push() {
	s := smt.NewSolver()
	x := s.NewVar("x", 0, 10)
	s.Assert(smt.Ge(smt.V(x), smt.C(3)))

	s.Push()
	s.Assert(smt.Le(smt.V(x), smt.C(1)))
	fmt.Println(s.Check().Status)
	s.Pop()
	fmt.Println(s.Check().Status)
	// Output:
	// unsat
	// sat
}
