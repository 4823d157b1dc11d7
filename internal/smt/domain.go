package smt

import "fmt"

// domains tracks the current lower and upper bound of every variable during
// search. Bounds are always finite (variables are declared with finite
// domains) and lo ≤ hi for every live variable; an empty domain is a
// conflict and is reported by the propagation engine rather than stored.
type domains struct {
	lo []int64
	hi []int64
}

func newDomains(lo, hi []int64) *domains {
	d := &domains{
		lo: append([]int64(nil), lo...),
		hi: append([]int64(nil), hi...),
	}
	return d
}

func (d *domains) clone() *domains {
	return &domains{
		lo: append([]int64(nil), d.lo...),
		hi: append([]int64(nil), d.hi...),
	}
}

func (d *domains) fixed(v Var) bool { return d.lo[v] == d.hi[v] }

// width returns the number of values in the domain of v.
func (d *domains) width(v Var) int64 { return d.hi[v] - d.lo[v] + 1 }

// exprRange computes the interval [min, max] that e can take under the
// current bounds.
func (d *domains) exprRange(e LinExpr) (minV, maxV int64) {
	minV, maxV = e.k, e.k
	for _, t := range e.terms {
		if t.C > 0 {
			minV += t.C * d.lo[t.V]
			maxV += t.C * d.hi[t.V]
		} else {
			minV += t.C * d.hi[t.V]
			maxV += t.C * d.lo[t.V]
		}
	}
	return minV, maxV
}

// tri is a three-valued truth: entailed, refuted, or unknown under the
// current bounds.
type tri int

const (
	triUnknown tri = iota
	triTrue
	triFalse
)

// atomStatus evaluates an atom against the current bounds.
func (d *domains) atomStatus(a Atom) tri {
	minV, maxV := d.exprRange(a.Expr)
	switch a.Op {
	case OpLE:
		if maxV <= 0 {
			return triTrue
		}
		if minV > 0 {
			return triFalse
		}
	case OpLT:
		if maxV < 0 {
			return triTrue
		}
		if minV >= 0 {
			return triFalse
		}
	case OpGE:
		if minV >= 0 {
			return triTrue
		}
		if maxV < 0 {
			return triFalse
		}
	case OpGT:
		if minV > 0 {
			return triTrue
		}
		if maxV <= 0 {
			return triFalse
		}
	case OpEQ:
		if minV == 0 && maxV == 0 {
			return triTrue
		}
		if minV > 0 || maxV < 0 {
			return triFalse
		}
	case OpNE:
		if minV > 0 || maxV < 0 {
			return triTrue
		}
		if minV == 0 && maxV == 0 {
			return triFalse
		}
	}
	return triUnknown
}

// formulaStatus evaluates an NNF formula against the current bounds,
// returning triTrue only if every completion within the bounds satisfies it,
// and triFalse only if none does.
func (d *domains) formulaStatus(f Formula) tri {
	switch g := f.(type) {
	case boolF:
		if g.v {
			return triTrue
		}
		return triFalse
	case atomF:
		return d.atomStatus(g.a)
	case notF:
		switch d.formulaStatus(g.f) {
		case triTrue:
			return triFalse
		case triFalse:
			return triTrue
		}
		return triUnknown
	case andF:
		out := triTrue
		for _, sub := range g.fs {
			switch d.formulaStatus(sub) {
			case triFalse:
				return triFalse
			case triUnknown:
				out = triUnknown
			}
		}
		return out
	case orF:
		out := triFalse
		for _, sub := range g.fs {
			switch d.formulaStatus(sub) {
			case triTrue:
				return triTrue
			case triUnknown:
				out = triUnknown
			}
		}
		return out
	}
	panic(fmt.Sprintf("smt: unknown formula node %T", f))
}
