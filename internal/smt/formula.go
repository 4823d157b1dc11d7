package smt

import (
	"fmt"
	"strconv"
	"strings"
)

// AtomOp is the comparison operator of an atom.
type AtomOp int

// Comparison operators. Internally everything is normalized to LE and EQ over
// integers (strict inequalities are tightened by one; NE becomes a
// disjunction during solving).
const (
	OpLE AtomOp = iota // Expr ≤ 0
	OpLT               // Expr < 0
	OpGE               // Expr ≥ 0
	OpGT               // Expr > 0
	OpEQ               // Expr = 0
	OpNE               // Expr ≠ 0
)

func (op AtomOp) String() string {
	switch op {
	case OpLE:
		return "<="
	case OpLT:
		return "<"
	case OpGE:
		return ">="
	case OpGT:
		return ">"
	case OpEQ:
		return "=="
	case OpNE:
		return "!="
	}
	return "?"
}

// Holds reports whether v OP 0: the truth of an atom whose expression
// evaluates to v. Holds and the model repair of internal/core both decide
// atoms through it.
func (op AtomOp) Holds(v int64) bool {
	switch op {
	case OpLE:
		return v <= 0
	case OpLT:
		return v < 0
	case OpGE:
		return v >= 0
	case OpGT:
		return v > 0
	case OpEQ:
		return v == 0
	case OpNE:
		return v != 0
	}
	panic("smt: bad AtomOp")
}

// negate returns the operator of the negated atom.
func (op AtomOp) negate() AtomOp {
	switch op {
	case OpLE:
		return OpGT
	case OpLT:
		return OpGE
	case OpGE:
		return OpLT
	case OpGT:
		return OpLE
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	}
	panic("smt: bad AtomOp")
}

// Atom is a linear constraint Expr ⋈ 0.
type Atom struct {
	Expr LinExpr
	Op   AtomOp
}

// Formula is a quantifier-free boolean combination of linear atoms.
// Formulas are immutable trees built with the package-level constructors
// (And, Or, Not, Implies, Le, Lt, Ge, Gt, Eq, Ne, True, False).
type Formula interface {
	isFormula()
}

type (
	atomF struct{ a Atom }
	boolF struct{ v bool }
	notF  struct{ f Formula }
	andF  struct{ fs []Formula }
	orF   struct{ fs []Formula }
)

func (atomF) isFormula() {}
func (boolF) isFormula() {}
func (notF) isFormula()  {}
func (andF) isFormula()  {}
func (orF) isFormula()   {}

// True and False are the boolean constants.
var (
	True  Formula = boolF{v: true}
	False Formula = boolF{v: false}
)

// AtomOf returns the atom of a bare atomic formula, and reports whether f
// is one.
func AtomOf(f Formula) (Atom, bool) {
	if g, ok := f.(atomF); ok {
		return g.a, true
	}
	return Atom{}, false
}

// Le returns the formula a ≤ b.
func Le(a, b LinExpr) Formula { return atomF{Atom{Expr: a.Sub(b), Op: OpLE}} }

// Lt returns the formula a < b.
func Lt(a, b LinExpr) Formula { return atomF{Atom{Expr: a.Sub(b), Op: OpLT}} }

// Ge returns the formula a ≥ b.
func Ge(a, b LinExpr) Formula { return atomF{Atom{Expr: a.Sub(b), Op: OpGE}} }

// Gt returns the formula a > b.
func Gt(a, b LinExpr) Formula { return atomF{Atom{Expr: a.Sub(b), Op: OpGT}} }

// Eq returns the formula a = b.
func Eq(a, b LinExpr) Formula { return atomF{Atom{Expr: a.Sub(b), Op: OpEQ}} }

// Ne returns the formula a ≠ b.
func Ne(a, b LinExpr) Formula { return atomF{Atom{Expr: a.Sub(b), Op: OpNE}} }

// Not returns ¬f.
func Not(f Formula) Formula {
	switch g := f.(type) {
	case boolF:
		return boolF{v: !g.v}
	case notF:
		return g.f
	case atomF:
		return atomF{Atom{Expr: g.a.Expr, Op: g.a.Op.negate()}}
	}
	return notF{f: f}
}

// And returns the conjunction of fs, flattening nested conjunctions and
// simplifying constants.
func And(fs ...Formula) Formula {
	out := make([]Formula, 0, len(fs))
	for _, f := range fs {
		switch g := f.(type) {
		case boolF:
			if !g.v {
				return False
			}
		case andF:
			out = append(out, g.fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return True
	case 1:
		return out[0]
	}
	return andF{fs: out}
}

// Or returns the disjunction of fs, flattening nested disjunctions and
// simplifying constants.
func Or(fs ...Formula) Formula {
	out := make([]Formula, 0, len(fs))
	for _, f := range fs {
		switch g := f.(type) {
		case boolF:
			if g.v {
				return True
			}
		case orF:
			out = append(out, g.fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return False
	case 1:
		return out[0]
	}
	return orF{fs: out}
}

// Implies returns a → b (as ¬a ∨ b).
func Implies(a, b Formula) Formula { return Or(Not(a), b) }

// nnf pushes negations down to atoms, yielding a formula consisting only of
// atoms, conjunctions, and disjunctions.
func nnf(f Formula) Formula {
	switch g := f.(type) {
	case boolF, atomF:
		return f
	case notF:
		switch h := g.f.(type) {
		case boolF:
			return boolF{v: !h.v}
		case atomF:
			return atomF{Atom{Expr: h.a.Expr, Op: h.a.Op.negate()}}
		case notF:
			return nnf(h.f)
		case andF:
			out := make([]Formula, len(h.fs))
			for i, sub := range h.fs {
				out[i] = nnf(notF{f: sub})
			}
			return Or(out...)
		case orF:
			out := make([]Formula, len(h.fs))
			for i, sub := range h.fs {
				out[i] = nnf(notF{f: sub})
			}
			return And(out...)
		}
	case andF:
		out := make([]Formula, len(g.fs))
		for i, sub := range g.fs {
			out[i] = nnf(sub)
		}
		return And(out...)
	case orF:
		out := make([]Formula, len(g.fs))
		for i, sub := range g.fs {
			out[i] = nnf(sub)
		}
		return Or(out...)
	}
	panic("smt: unknown formula node")
}

// Holds evaluates f under the complete assignment m, indexed by Var (m[v] is
// the value of v; every variable of f must be below len(m)). This is the
// ground evaluator of the decoder's model patching, which re-evaluates a
// handful of rule conjuncts per probe: a slice index per term, no hashing.
func Holds(f Formula, m []int64) bool {
	switch g := f.(type) {
	case boolF:
		return g.v
	case atomF:
		return g.a.Op.Holds(g.a.Expr.At(m))
	case notF:
		return !Holds(g.f, m)
	case andF:
		for _, sub := range g.fs {
			if !Holds(sub, m) {
				return false
			}
		}
		return true
	case orF:
		for _, sub := range g.fs {
			if Holds(sub, m) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("smt: unknown formula node %T", f))
}

// EvalFormula evaluates f under a complete assignment given as a map. It is
// the independent reference the tests hold the decoder's evaluators to: Holds
// (the slice-indexed evaluator of the hot path) and the model repair of
// internal/core, whose every accepted model must satisfy the whole stack.
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

// Conjuncts splits f into its top-level conjuncts. And flattens nested
// conjunctions at construction time, so one level of splitting is complete:
// no element of the result is itself a conjunction.
func Conjuncts(f Formula) []Formula {
	switch g := f.(type) {
	case nil:
		return nil
	case andF:
		return g.fs
	}
	return []Formula{f}
}

// Disjuncts returns the alternatives of a top-level disjunction, or nil when
// f is not one. Or flattens nested disjunctions at construction time, so no
// element is itself a disjunction. It does not allocate: model repair calls
// it on the decode step's hot path.
func Disjuncts(f Formula) []Formula {
	if g, ok := f.(orF); ok {
		return g.fs
	}
	return nil
}

// FormulaVars returns the set of variables referenced by f.
func FormulaVars(f Formula) map[Var]bool {
	out := make(map[Var]bool)
	collectVars(f, out)
	return out
}

func collectVars(f Formula, out map[Var]bool) {
	switch g := f.(type) {
	case atomF:
		for _, v := range g.a.Expr.Vars() {
			out[v] = true
		}
	case notF:
		collectVars(g.f, out)
	case andF:
		for _, sub := range g.fs {
			collectVars(sub, out)
		}
	case orF:
		for _, sub := range g.fs {
			collectVars(sub, out)
		}
	}
}

// FormulaString renders f for debugging.
func FormulaString(f Formula) string {
	var fs []Formula
	sep := " && "
	switch g := f.(type) {
	case atomF:
		return g.a.Expr.String() + " " + g.a.Op.String() + " 0"
	case boolF:
		return strconv.FormatBool(g.v)
	case notF:
		return "!(" + FormulaString(g.f) + ")"
	case andF:
		fs = g.fs
	case orF:
		fs, sep = g.fs, " || "
	}
	parts := make([]string, len(fs))
	for i, sub := range fs {
		parts[i] = FormulaString(sub)
	}
	return "(" + strings.Join(parts, sep) + ")"
}
