package core

import (
	"context"
	"math/rand"

	"repro/internal/rules"
	"repro/internal/smt"
	"repro/internal/transition"
)

// SharedRulesModel returns the rules-only model e shares with its clones.
func (e *Engine) SharedRulesModel() []int64 { return e.rulesModel }

// EmptyPromptCheck runs on e the feasibility Check an empty-prompt lane ran
// before it took the shared model as its witness: the rules under an empty
// Push frame.
func (e *Engine) EmptyPromptCheck() smt.Result {
	e.solver.Push()
	defer e.solver.Pop()
	return e.solver.Check()
}

// RuleFingerprint is ruleFingerprint, for the clone-fingerprint gate.
func RuleFingerprint(cfg Config) uint64 { return ruleFingerprint(cfg) }

// WalkFirstSlot starts a guided lane for prompt known on a clone of e, as a
// decode does, and walks its first generated slot's transition system depth
// first through every admissible digit, calling visit at each state with its
// digit prefix and admissible set. It returns the slot variable's propagated
// bounds and the slot oracle's envelope after the walk, which the solver's
// refutations may have narrowed (noteUnsat).
func (e *Engine) WalkFirstSlot(known rules.Record, visit func(prefix string, digits [10]bool, canEnd bool)) (bounds, envelope [2]int64, err error) {
	ld := e.clone().newLaneDecoder(context.Background(), MethodGuided, known, rand.New(rand.NewSource(1)), nil)
	if ld.done() {
		return bounds, envelope, ld.err
	}
	defer ld.finish()
	if err := ld.beginSlot(); err != nil {
		return bounds, envelope, err
	}
	o := ld.oracle
	bounds[0], bounds[1], _ = ld.e.solver.BaseBounds(o.v)
	var walk func(st transition.State, prefix string)
	walk = func(st transition.State, prefix string) {
		digits, canEnd := ld.sys.Admissible(st)
		visit(prefix, digits, canEnd)
		for d := byte(0); d <= 9; d++ {
			if digits[d] {
				next, _ := ld.sys.Step(st, '0'+d)
				walk(next, prefix+string('0'+d))
			}
		}
	}
	walk(ld.sys.Start(), "")
	return bounds, [2]int64{o.kLo, o.kHi}, o.budgetErr()
}
