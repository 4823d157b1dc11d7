package smt

// This file backs LeJIT's interval-based oracle fast path (DESIGN.md §6).
// The decoder answers most per-digit range probes from the propagated root
// bounds of the slot variable instead of issuing a solver check, which is
// sound only under two conditions established here:
//
//  1. BaseBounds must be a true over-approximation of the variable's
//     feasible projection. Bounds propagation guarantees that by
//     construction, so a probe range disjoint from BaseBounds is always
//     genuinely infeasible.
//  2. Treating the feasible set as one contiguous interval (so "between two
//     witnessed values" implies feasible) requires the projection to have no
//     holes. Disjunctions are the dominant source of holes, and the hole a
//     disjunction induces is not confined to the variables it mentions —
//     v = y ∧ (y ≤ 0 ∨ y ≥ 10) punches a hole into v's projection without
//     any disjunction naming v. VarDisjunctionTainted therefore reports v
//     as tainted when v is connected, through the constraint graph of the
//     stack's asserted rows (entailed ones included) and the unit
//     alternatives folded into the store, to any variable of a live
//     disjunction.
//     For the conjunctive remainder, interval-ness is a property of the
//     rule grammar, not of linear arithmetic in general (coupled equality
//     chains like w = x+y ∧ x = y give w an all-even projection); LeJIT's
//     compiled rules — single unit-coefficient sum equalities plus pairwise
//     inequalities whose slack (≥2) exceeds their coefficients minus one —
//     cannot express such chains. DESIGN.md §6 states the argument; the
//     decoder's mask tests check it empirically, against brute-force
//     enumeration on small schemas and against an independent solver
//     reference on the shipped rule sets.
//
// "Live" matters for precision: the telemetry prompt pins the coarse fields
// before fine-grained decoding starts, which decides most rule disjunctions
// (e.g. Congestion = 0 entails the r3 implication). simplifyDisjunctions
// resolves those at base-build time — entailed disjunctions are dropped,
// refuted alternatives pruned, sole survivors asserted as base constraints —
// so taint reflects only the disjunctions that can still branch.

// simplifyDisjunctions resolves the base store's disjunctions against the
// propagated root bounds, to fixpoint. Sound for every later probe of the
// epoch: probes only conjoin extra constraints, which shrink the bound box,
// and a formula entailed (resp. refuted) on a box stays entailed (refuted)
// on any subset.
//
// Each round reads a copy of the pending disjunctions (s.pendDisj) and
// writes the survivors back into b.disj; narrowed alternatives go to b.live
// and the terms of folded units to b.terms, so a recycled store rebuilds in
// its own arrays.
func (b *baseStore) simplifyDisjunctions(s *Solver) {
	pending := append(s.pendDisj[:0], b.disj...)
	defer func() { s.pendDisj = pending[:0] }()
	for len(pending) > 0 {
		next := b.disj[:0]
		asserted := false
		for _, g := range pending {
			from := len(b.live)
			entailed := false
			for _, alt := range g.fs {
				switch b.dom.formulaStatus(alt) {
				case triTrue:
					entailed = true
				case triUnknown:
					b.live = append(b.live, alt)
				}
				if entailed {
					break
				}
			}
			if entailed {
				b.live = b.live[:from]
				continue
			}
			alts := b.live[from:len(b.live):len(b.live)]
			switch len(alts) {
			case 0:
				b.conflict = true
				return
			case 1:
				// Unit: the sole surviving alternative must hold; fold it
				// into the base constraints. (Alternatives of an asserted
				// formula are in NNF already, as Assert compiled it.)
				if !decompose(alts[0], &s.work, &b.cons, &next, &b.terms) {
					b.conflict = true
					return
				}
				b.live = b.live[:from]
				asserted = true
			default:
				next = append(next, orF{fs: alts})
			}
		}
		if asserted {
			// New base constraints may tighten bounds, which can decide
			// disjunctions kept earlier in this round: re-examine them all.
			if !propagate(&b.dom, b.cons, &s.stats.Propagations) {
				b.conflict = true
				return
			}
			pending = append(pending[:0], next...)
			b.disj = next[:0]
			continue
		}
		b.disj = next
		return
	}
	b.disj = b.disj[:0]
}

// buildTaint marks every variable whose feasible projection may be
// non-convex: those in the same constraint-graph component as a variable of
// a live disjunction. The graph is b.graph — every asserted row of the
// prefix, including rows the box entails and dropEntailed removed — joined
// with the rows still in the store, which adds the folded unit alternatives
// that can still act.
func (b *baseStore) buildTaint(s *Solver) {
	if len(b.disj) == 0 {
		return // no live disjunctions: every projection is an interval
	}
	g := append(s.taintG[:0], b.graph...)
	for i := range b.cons {
		joinVars(g, b.cons[i].terms)
	}
	tainted := zeroed(s.taintMark, len(g))
	for _, d := range b.disj {
		markRoots(d, g, tainted)
	}
	b.taint = zeroed(b.taint, len(g))
	for v := range b.taint {
		b.taint[v] = tainted[findRoot(g, int32(v))]
	}
	b.disjTaint = b.taint
	s.taintG, s.taintMark = g, tainted
}

// markRoots sets tainted[r] for the component root r of every variable f
// mentions.
func markRoots(f Formula, g []int32, tainted []bool) {
	switch h := f.(type) {
	case atomF:
		for _, t := range h.a.Expr.terms {
			tainted[findRoot(g, int32(t.V))] = true
		}
	case notF:
		markRoots(h.f, g, tainted)
	case andF:
		for _, sub := range h.fs {
			markRoots(sub, g, tainted)
		}
	case orF:
		for _, sub := range h.fs {
			markRoots(sub, g, tainted)
		}
	}
}

// findRoot returns the representative of x in the union-find forest g,
// halving the path as it climbs.
func findRoot(g []int32, x int32) int32 {
	for g[x] != x {
		g[x] = g[g[x]]
		x = g[x]
	}
	return x
}

// joinVars merges the components of all variables of one row.
func joinVars(g []int32, terms []term) {
	for j := 1; j < len(terms); j++ {
		if rx, ry := findRoot(g, int32(terms[0].V)), findRoot(g, int32(terms[j].V)); rx != ry {
			g[rx] = ry
		}
	}
}

// BaseBounds returns the propagated root bounds of v under the active
// assertions: a superset of v's feasible values, computed without any solver
// check (the epoch's memoized base store is built at most once). feasible is
// false when the assertions alone are unsatisfiable — then no value of any
// variable is feasible.
func (s *Solver) BaseBounds(v Var) (lo, hi int64, feasible bool) {
	b := s.currentBase()
	if b.conflict {
		return 0, 0, false
	}
	return b.dom.lo[v], b.dom.hi[v], true
}

// VarDisjunctionTainted reports whether v's feasible projection may be
// non-convex under the active assertions: whether v shares a constraint-graph
// component with a variable of a disjunction the root bounds cannot decide.
// When it returns false, the feasible set of v is a single interval, so a
// caller holding two feasible witnesses may treat every value between them
// as feasible. Conservative: true never lies, false is exact for the
// bounds-consistent base (see the file comment for the argument).
func (s *Solver) VarDisjunctionTainted(v Var) bool {
	b := s.currentBase()
	if b.conflict {
		return true
	}
	if b.disjTaint == nil {
		return false
	}
	return b.disjTaint[v]
}
