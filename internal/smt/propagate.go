package smt

import "slices"

// lincon is a normalized linear constraint used by the propagation engine:
//
//	Σ terms ≤ rhs        (eq == false)
//	Σ terms  = rhs        (eq == true)
//
// Strict inequalities over integers are tightened during normalization
// (e < 0 becomes e ≤ -1), and ≥ is negated into ≤, so only these two shapes
// remain. NE atoms are handled as disjunctions by the search, never here.
type lincon struct {
	terms []term
	rhs   int64
	eq    bool
}

// normalizeAtom converts an atom into zero or more linear constraints, or
// reports that it must be split as a disjunction (for NE), or that it is
// trivially decided (constant expressions).
//
// Return values: cons is the constraint (valid when kind == normCon);
// kind describes the outcome.
type normKind int

const (
	normCon   normKind = iota // a constraint to propagate
	normTrue                  // trivially satisfied
	normFalse                 // trivially unsatisfiable
	normSplit                 // NE: caller must branch on (< 0) ∨ (> 0)
)

// normalizeAtom lowers one atom (see normKind). Terms the normalization creates (a negated or gcd-reduced row) are carved
// from *arena when arena is non-nil — a scratch stack its owner truncates
// (see newTerms) — and freshly allocated otherwise; terms it does not change
// alias the atom's own, which are immutable.
func normalizeAtom(a Atom, arena *[]term) (lincon, normKind) {
	e := a.Expr
	if e.IsConst() {
		sat := false
		switch a.Op {
		case OpLE:
			sat = e.k <= 0
		case OpLT:
			sat = e.k < 0
		case OpGE:
			sat = e.k >= 0
		case OpGT:
			sat = e.k > 0
		case OpEQ:
			sat = e.k == 0
		case OpNE:
			sat = e.k != 0
		}
		if sat {
			return lincon{}, normTrue
		}
		return lincon{}, normFalse
	}
	switch a.Op {
	case OpLE: // e ≤ 0  →  terms ≤ -k
		return reduceCon(lincon{terms: e.terms, rhs: -e.k}, arena), normCon
	case OpLT: // e < 0  →  terms ≤ -k - 1
		return reduceCon(lincon{terms: e.terms, rhs: -e.k - 1}, arena), normCon
	case OpGE: // e ≥ 0  →  -terms ≤ k
		return reduceCon(lincon{terms: negTerms(e.terms, arena), rhs: e.k}, arena), normCon
	case OpGT: // e > 0  →  -terms ≤ k - 1
		return reduceCon(lincon{terms: negTerms(e.terms, arena), rhs: e.k - 1}, arena), normCon
	case OpEQ:
		c := lincon{terms: e.terms, rhs: -e.k, eq: true}
		// Divisibility check: if gcd(coefs) does not divide rhs, the
		// equality has no integer solution.
		g := int64(0)
		for _, t := range c.terms {
			g = gcd64(g, abs64(t.C))
		}
		if g > 1 {
			if c.rhs%g != 0 {
				return lincon{}, normFalse
			}
			ts := newTerms(arena, len(c.terms))
			for i, t := range c.terms {
				ts[i] = term{V: t.V, C: t.C / g}
			}
			c = lincon{terms: ts, rhs: c.rhs / g, eq: true}
		}
		return c, normCon
	case OpNE:
		return lincon{}, normSplit
	}
	panic("smt: bad atom op")
}

// newTerms returns storage for n terms: the next n of *arena when arena is
// non-nil, a new array otherwise. The arena only grows here; its owner
// truncates it once no row points above the cut. Growing may move the
// arena, which rows carved earlier never notice — they keep the old array.
func newTerms(arena *[]term, n int) []term {
	if arena == nil {
		return make([]term, n)
	}
	a := slices.Grow(*arena, n)
	*arena = a[:len(a)+n]
	return a[len(a) : len(a)+n : len(a)+n]
}

func negTerms(ts []term, arena *[]term) []term {
	out := newTerms(arena, len(ts))
	for i, t := range ts {
		out[i] = term{V: t.V, C: -t.C}
	}
	return out
}

// reduceCon divides an inequality through by the gcd of its coefficients,
// rounding the right-hand side down (sound and tightening for integers).
func reduceCon(c lincon, arena *[]term) lincon {
	g := int64(0)
	for _, t := range c.terms {
		g = gcd64(g, abs64(t.C))
	}
	if g <= 1 {
		return c
	}
	ts := newTerms(arena, len(c.terms))
	for i, t := range c.terms {
		ts[i] = term{V: t.V, C: t.C / g}
	}
	return lincon{terms: ts, rhs: floorDiv(c.rhs, g), eq: c.eq}
}

// bound names one end of one variable's domain: 2v is the lower bound of v,
// 2v+1 the upper. A row's feasibility test and every bound it derives read
// minSum alone — the lower bounds of its positive terms and the upper bounds
// of its negative ones (an equality reads maxSum too, so all of them) — so a
// row needs waking only when one of those moves.
type bound int32

func loOf(v Var) bound { return bound(v) << 1 }
func hiOf(v Var) bound { return bound(v)<<1 | 1 }

// reads reports whether a move of b can change what c derives.
func (c *lincon) reads(b bound) bool {
	for _, t := range c.terms {
		if t.V == Var(b>>1) {
			return c.eq || (t.C < 0) == (b&1 == 1)
		}
	}
	return false
}

// propagate runs bounds-consistency propagation over cons until fixpoint.
// It returns false on conflict (some constraint unsatisfiable under the
// bounds, or a domain became empty). The count of individual bound
// tightenings is added to *tightenings when non-nil.
func propagate(d *domains, cons []lincon, tightenings *uint64) bool {
	for {
		changed := false
		for i := range cons {
			ok, ch := propagateOne(d, &cons[i], nil)
			if !ok {
				return false
			}
			if ch {
				changed = true
				if tightenings != nil {
					*tightenings++
				}
			}
		}
		if !changed {
			return true
		}
	}
}

// propagateOne applies one constraint to the domain store. For
// Σ c_i x_i ≤ rhs it derives, for each j:
//
//	c_j x_j ≤ rhs − Σ_{i≠j} min(c_i x_i)
//
// and tightens x_j accordingly; equalities propagate both directions.
// When moved is non-nil, every bound that moves is appended to it (the
// worklist propagator uses this to wake the constraints that read it).
//
// Most visits move nothing, so the loop is built to make those cheap. With
// slack = rhs − minSum the bound above reads lo_j + ⌊slack/c_j⌋ for c_j > 0
// (hi_j − ⌊slack/|c_j|⌋ for c_j < 0), which is tighter than the current one
// exactly when slack < |c_j|·(hi_j − lo_j): a term is tested with one
// multiplication and divided only when its bound really moves. The lower
// side of an equality is the mirror image in surplus = maxSum − rhs. Both
// quotients are of a non-negative by a positive number, so Go's truncating
// division is the floor.
func propagateOne(d *domains, c *lincon, moved *[]bound) (ok, changed bool) {
restart:
	var minSum, maxSum int64
	for _, t := range c.terms {
		if t.C > 0 {
			minSum += t.C * d.lo[t.V]
			maxSum += t.C * d.hi[t.V]
		} else {
			minSum += t.C * d.hi[t.V]
			maxSum += t.C * d.lo[t.V]
		}
	}
	if minSum > c.rhs || (c.eq && maxSum < c.rhs) {
		return false, changed
	}
	slack, surplus := c.rhs-minSum, maxSum-c.rhs
	for _, t := range c.terms {
		v, a := t.V, abs64(t.C)
		reach := a * (d.hi[v] - d.lo[v])
		var m bound
		if slack < reach {
			if t.C > 0 {
				d.hi[v], m = d.lo[v]+slack/a, hiOf(v)
			} else {
				d.lo[v], m = d.hi[v]-slack/a, loOf(v)
			}
		} else if c.eq && surplus < reach {
			if t.C > 0 {
				d.lo[v], m = d.hi[v]-surplus/a, loOf(v)
			} else {
				d.hi[v], m = d.lo[v]+surplus/a, hiOf(v)
			}
		} else {
			continue
		}
		changed = true
		if moved != nil {
			*moved = append(*moved, m)
		}
		if c.eq {
			// The move changed the other sum, which the terms already passed
			// read on their opposite side: start over with fresh sums.
			goto restart
		}
		// An inequality's tightenings leave minSum, hence slack, as it was,
		// and a term's test reads nothing else but its own width: the terms
		// already passed would pass again.
	}
	return true, changed
}

// conSatisfiedAtFixpoint reports whether the constraint is certainly
// satisfied when every variable is fixed (used as a final verification).
func conSatisfiedFixed(d *domains, c *lincon) bool {
	var sum int64
	for _, t := range c.terms {
		sum += t.C * d.lo[t.V]
	}
	if c.eq {
		return sum == c.rhs
	}
	return sum <= c.rhs
}
