package core

import (
	"fmt"

	"repro/internal/rules"
	"repro/internal/smt"
)

// DiagnoseInfeasible explains why no rule-compliant completion exists for
// the known prefix: it returns a minimal subset of rule names that, together
// with the known values and the field domains, is already unsatisfiable
// (a minimal unsatisfiable core at rule granularity, computed by deletion
// minimization).
//
// It returns an error if the prompt is actually feasible, and may return an
// over-approximate core if the solver budget is exhausted mid-minimization.
func (e *Engine) DiagnoseInfeasible(known rules.Record) ([]string, error) {
	if e.cfg.Rules == nil {
		return nil, fmt.Errorf("core: no rule set configured")
	}
	// A scratch solver so diagnosis never disturbs the decode solver.
	s := smt.NewSolver()
	if e.cfg.MaxNodes > 0 {
		s.MaxNodes = e.cfg.MaxNodes
	}
	b := rules.Instantiate(s, e.cfg.Schema)
	eqs, err := knownEqs(b, known)
	if err != nil {
		return nil, err
	}
	for _, eq := range eqs {
		s.Assert(eq)
	}

	// Compile each rule separately so they can be toggled.
	compiled := make([]smt.Formula, len(e.cfg.Rules.Rules))
	for i, r := range e.cfg.Rules.Rules {
		f, err := e.cfg.Rules.Compile(r, b)
		if err != nil {
			return nil, fmt.Errorf("core: compiling rule %s: %w", r.Name, err)
		}
		compiled[i] = f
	}

	active := make([]bool, len(compiled))
	for i := range active {
		active[i] = true
	}
	conj := func() smt.Formula {
		var fs []smt.Formula
		for i, on := range active {
			if on {
				fs = append(fs, compiled[i])
			}
		}
		return smt.And(fs...)
	}

	if r := s.CheckWith(conj()); r.Status == smt.Sat {
		return nil, fmt.Errorf("core: prompt is feasible; nothing to diagnose")
	}

	// Deletion minimization: drop any rule whose removal keeps UNSAT.
	for i := range compiled {
		active[i] = false
		r := s.CheckWith(conj())
		if r.Status != smt.Unsat {
			active[i] = true // needed for infeasibility (or unknown: keep)
		}
	}
	var names []string
	for i, on := range active {
		if on {
			names = append(names, e.cfg.Rules.Rules[i].Name)
		}
	}
	return names, nil
}
