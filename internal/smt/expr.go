// Package smt implements a small, self-contained SMT solver for
// quantifier-free linear integer arithmetic (QF-LIA) over finite-domain
// variables, with boolean structure (and/or/not/implies).
//
// It is the symbolic-reasoning substrate of LeJIT: network rules compile to
// smt.Formula values, and the decoding engine queries the solver before every
// token to compute the set of values from which a rule-compliant completion
// still exists.
//
// The solver is sound and complete for bounded integer variables: it combines
// bounds-consistency propagation over linear constraints with DPLL-style
// search over disjunctions and domain splitting (branch and bound). All
// variables must be declared with finite bounds; this matches network
// telemetry, where every counter is non-negative and capped by a physical
// quantity such as link capacity or window volume.
package smt

import (
	"fmt"
	"strings"
)

// Var identifies an integer variable within a Solver. Vars are created with
// Solver.NewVar and are only meaningful for the solver that created them.
type Var int

// InvalidVar is the zero value sentinel for "no variable".
const InvalidVar Var = -1

// term is one coefficient*variable product inside a linear expression.
type term struct {
	V Var
	C int64
}

// LinExpr is a linear expression over integer variables:
//
//	Σ Coef_i · Var_i + Const
//
// LinExpr values are immutable once built; all combinators return fresh
// expressions. The zero value is the constant 0.
type LinExpr struct {
	terms []term // sorted by Var, no zero coefficients, no duplicates
	k     int64
}

// C returns the constant expression c.
func C(c int64) LinExpr { return LinExpr{k: c} }

// V returns the expression consisting of the single variable v.
func V(v Var) LinExpr { return LinExpr{terms: []term{{V: v, C: 1}}} }

// Const reports the constant part of the expression.
func (e LinExpr) Const() int64 { return e.k }

// IsConst reports whether the expression has no variable terms.
func (e LinExpr) IsConst() bool { return len(e.terms) == 0 }

// Vars returns the variables referenced by the expression, in ascending order.
func (e LinExpr) Vars() []Var {
	vs := make([]Var, len(e.terms))
	for i, t := range e.terms {
		vs[i] = t.V
	}
	return vs
}

// NumTerms returns the number of variable terms.
func (e LinExpr) NumTerms() int { return len(e.terms) }

// Term returns the i-th variable term (ascending by variable, 0 ≤ i <
// NumTerms) and its coefficient, which is never 0: Vars without the slice
// Vars allocates.
func (e LinExpr) Term(i int) (Var, int64) { return e.terms[i].V, e.terms[i].C }

// Add returns e + f.
func (e LinExpr) Add(f LinExpr) LinExpr {
	out := LinExpr{k: e.k + f.k}
	out.terms = mergeTerms(e.terms, f.terms)
	return out
}

// Sub returns e - f.
func (e LinExpr) Sub(f LinExpr) LinExpr { return e.Add(f.Scale(-1)) }

// AddConst returns e + c.
func (e LinExpr) AddConst(c int64) LinExpr {
	out := e
	out.terms = append([]term(nil), e.terms...)
	out.k += c
	return out
}

// Scale returns c·e.
func (e LinExpr) Scale(c int64) LinExpr {
	if c == 0 {
		return LinExpr{}
	}
	out := LinExpr{k: e.k * c, terms: make([]term, 0, len(e.terms))}
	for _, t := range e.terms {
		out.terms = append(out.terms, term{V: t.V, C: t.C * c})
	}
	return out
}

// At evaluates the expression under a complete assignment indexed by Var.
func (e LinExpr) At(m []int64) int64 {
	v := e.k
	for _, t := range e.terms {
		v += t.C * m[t.V]
	}
	return v
}

// Eval evaluates the expression under a complete assignment. It returns an
// error if any referenced variable is missing from the assignment.
func (e LinExpr) Eval(assign map[Var]int64) (int64, error) {
	v := e.k
	for _, t := range e.terms {
		x, ok := assign[t.V]
		if !ok {
			return 0, fmt.Errorf("smt: variable %d unassigned in Eval", t.V)
		}
		v += t.C * x
	}
	return v, nil
}

// mergeTerms merges two sorted term slices, summing coefficients and dropping
// zeros.
func mergeTerms(a, b []term) []term {
	out := make([]term, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].V < b[j].V:
			out = append(out, a[i])
			i++
		case a[i].V > b[j].V:
			out = append(out, b[j])
			j++
		default:
			c := a[i].C + b[j].C
			if c != 0 {
				out = append(out, term{V: a[i].V, C: c})
			}
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// String renders the expression using solver-independent variable names x<i>.
func (e LinExpr) String() string {
	if len(e.terms) == 0 {
		return fmt.Sprintf("%d", e.k)
	}
	var b strings.Builder
	for i, t := range e.terms {
		c := t.C
		if i == 0 {
			if c == -1 {
				b.WriteString("-")
			} else if c != 1 {
				fmt.Fprintf(&b, "%d*", c)
			}
		} else {
			if c < 0 {
				b.WriteString(" - ")
				c = -c
			} else {
				b.WriteString(" + ")
			}
			if c != 1 {
				fmt.Fprintf(&b, "%d*", c)
			}
		}
		fmt.Fprintf(&b, "x%d", t.V)
	}
	if e.k > 0 {
		fmt.Fprintf(&b, " + %d", e.k)
	} else if e.k < 0 {
		fmt.Fprintf(&b, " - %d", -e.k)
	}
	return b.String()
}

// gcd64 returns the greatest common divisor of two non-negative int64s.
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// abs64 returns |a|.
func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
