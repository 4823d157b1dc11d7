// Package ilp implements L1-minimal integer repair on top of the SMT solver:
// given a constraint store and a target point (a model's raw output), find
// the feasible point minimizing Σ|xᵢ − targetᵢ|.
//
// This is the post-inference enforcement strategy of the paper's §2.2: it is
// what Zoom2Net's Constraint Enforcement Module does (an ILP projection), and
// what a generic "SMT repair" baseline does. The paper's critique — that the
// projection optimizes numerical distance, not semantic likelihood, and so
// hurts statistical fidelity — is exactly what the Fig 4/5 experiments
// measure against this implementation.
//
// It is a paper-figure baseline, not a serving path: the PostHoc decode mode
// and the Zoom2Net substitute call it, and no server route or benchmark
// workload reaches it.
package ilp

import (
	"fmt"

	"repro/internal/smt"
)

// Repair finds an assignment to vars that satisfies every assertion active
// on s and minimizes the L1 distance Σ|vars[i] − targets[i]|. It returns the
// assignment restricted to vars.
//
// The search grows the distance budget exponentially from zero (probes with
// a small budget propagate hard: every variable is pinned to a narrow band
// around its target) and then binary-searches between the last refuted and
// first satisfied budget. If the solver's node budget runs out mid-search,
// Repair returns the best incumbent found so far — compliant but possibly
// not L1-optimal — which mirrors the time-limited ILP of real CEM-style
// systems. Only when no compliant point is found at all does it return a
// non-Sat status.
//
// Repair adds auxiliary deviation variables to s (they remain declared
// afterwards — solvers are cheap, use a fresh one per repair if that
// matters) but leaves the assertion stack unchanged.
func Repair(s *smt.Solver, vars []smt.Var, targets []int64) (map[smt.Var]int64, smt.Status) {
	if len(vars) != len(targets) {
		panic(fmt.Sprintf("ilp: %d vars, %d targets", len(vars), len(targets)))
	}
	if len(vars) == 0 {
		r := s.Check()
		return map[smt.Var]int64{}, r.Status
	}

	// Deviation encoding: dᵢ ≥ xᵢ − tᵢ and dᵢ ≥ tᵢ − xᵢ, objective Σ dᵢ.
	var side []smt.Formula
	var obj smt.LinExpr
	var maxObj int64
	for i, v := range vars {
		lo, hi := s.Bounds(v)
		t := targets[i]
		maxDev := hi - t
		if d := t - lo; d > maxDev {
			maxDev = d
		}
		if maxDev < 0 {
			maxDev = 0
		}
		maxObj += maxDev
		d := s.NewVar(fmt.Sprintf("dev(%s)", s.VarName(v)), 0, maxDev)
		side = append(side,
			smt.Ge(smt.V(d), smt.V(v).AddConst(-t)),
			smt.Ge(smt.V(d), smt.V(v).Scale(-1).AddConst(t)),
		)
		obj = obj.Add(smt.V(d))
	}

	probe := func(bound int64) smt.Result {
		extra := append(append([]smt.Formula(nil), side...), smt.Le(obj, smt.C(bound)))
		return s.CheckWith(extra...)
	}
	extract := func(model map[smt.Var]int64) map[smt.Var]int64 {
		out := make(map[smt.Var]int64, len(vars))
		for _, v := range vars {
			out[v] = model[v]
		}
		return out
	}
	objOf := func(model map[smt.Var]int64) int64 {
		var d int64
		for i, v := range vars {
			diff := model[v] - targets[i]
			if diff < 0 {
				diff = -diff
			}
			d += diff
		}
		return d
	}

	// Exponential ascent: find the first satisfiable distance budget.
	var best map[smt.Var]int64
	lo, bound := int64(0), int64(0)
	var hi int64
	for {
		r := probe(bound)
		switch r.Status {
		case smt.Sat:
			best = r.Model
			hi = objOf(r.Model)
		case smt.Unsat:
			lo = bound + 1
			if bound == 0 {
				bound = 1
			} else {
				bound *= 2
			}
			if bound > maxObj {
				bound = maxObj
			}
			if lo > maxObj {
				return nil, smt.Unsat
			}
			continue
		default:
			// Budget exhausted proving a tight bound; fall back to an
			// unconstrained compliance check for an incumbent.
			r2 := s.CheckWith(side...)
			if r2.Status != smt.Sat {
				return nil, r2.Status
			}
			return extract(r2.Model), smt.Sat
		}
		break
	}

	// Binary descent between the last refuted budget and the incumbent.
	for lo < hi {
		mid := lo + (hi-lo)/2
		r := probe(mid)
		switch r.Status {
		case smt.Sat:
			best = r.Model
			if v := objOf(r.Model); v < hi {
				hi = v
			} else {
				hi = mid
			}
		case smt.Unsat:
			lo = mid + 1
		default:
			// Out of budget: keep the incumbent.
			return extract(best), smt.Sat
		}
	}
	return extract(best), smt.Sat
}

// Distance computes the L1 distance between an assignment and targets.
func Distance(assign map[smt.Var]int64, vars []smt.Var, targets []int64) int64 {
	var d int64
	for i, v := range vars {
		diff := assign[v] - targets[i]
		if diff < 0 {
			diff = -diff
		}
		d += diff
	}
	return d
}
