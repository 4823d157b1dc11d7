package smt

import (
	"fmt"
	"math/rand"
	"testing"
)

// EvalFormula evaluates f under a complete assignment given as a map: the
// evaluator Holds replaced in PR 18, kept as the tests' independent reference.
func EvalFormula(f Formula, assign map[Var]int64) (bool, error) {
	switch g := f.(type) {
	case boolF:
		return g.v, nil
	case atomF:
		v, err := g.a.Expr.Eval(assign)
		if err != nil {
			return false, err
		}
		switch g.a.Op {
		case OpLE:
			return v <= 0, nil
		case OpLT:
			return v < 0, nil
		case OpGE:
			return v >= 0, nil
		case OpGT:
			return v > 0, nil
		case OpEQ:
			return v == 0, nil
		case OpNE:
			return v != 0, nil
		}
		return false, fmt.Errorf("smt: bad atom op %v", g.a.Op)
	case notF:
		v, err := EvalFormula(g.f, assign)
		return !v, err
	case andF:
		for _, sub := range g.fs {
			v, err := EvalFormula(sub, assign)
			if err != nil || !v {
				return false, err
			}
		}
		return true, nil
	case orF:
		for _, sub := range g.fs {
			v, err := EvalFormula(sub, assign)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("smt: unknown formula node %T", f)
}

// TestHoldsMatchesEvalFormula checks the slice-indexed evaluator against the
// map-based reference on random formulas at every point of a small box.
func TestHoldsMatchesEvalFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []Var{0, 1, 2}
	for trial := 0; trial < 300; trial++ {
		f := randFormula(rng, vars, 3)
		m := make([]int64, len(vars))
		for m[0] = -1; m[0] <= 3; m[0]++ {
			for m[1] = -1; m[1] <= 3; m[1]++ {
				for m[2] = -1; m[2] <= 3; m[2]++ {
					want, err := EvalFormula(f, map[Var]int64{0: m[0], 1: m[1], 2: m[2]})
					if err != nil {
						t.Fatal(err)
					}
					if got := Holds(f, m); got != want {
						t.Fatalf("Holds(%s, %v) = %v, EvalFormula says %v", FormulaString(f), m, got, want)
					}
				}
			}
		}
	}
}
