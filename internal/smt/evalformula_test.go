package smt

import (
	"math/rand"
	"testing"
)

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
