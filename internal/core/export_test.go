package core

import "repro/internal/smt"

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
