package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/smt"
	"repro/internal/transition"
	"repro/internal/vocab"
)

// CloneableSession is a Session whose state can be forked — required by
// beam-search decoding, where beams share a prefix and then diverge.
// *nn.Session implements it via the WrapNN adapter; custom LMs can opt in.
type CloneableSession interface {
	Session
	CloneSession() Session
}

// nn sessions clone natively.
type nnSession struct{ *nn.Session }

func (s nnSession) CloneSession() Session { return nnSession{s.Session.Clone()} }

func (a nnLM) newCloneable() Session { return nnSession{a.m.NewSession()} }

// BeamImpute decodes the slots not covered by known with beam search of the
// given width under Just-in-Time rule enforcement: a deterministic,
// MAP-flavoured alternative to sampling that returns (approximately) the
// most likely rule-compliant completion. Stats.LogProb carries the
// renormalized log-probability of the returned sequence.
//
// The LM's sessions must support cloning (CloneableSession; the built-in
// transformer does).
//
// BeamImpute is the decoding-strategy ablation (lejit-bench -fig abl; the
// public lejit.Pipeline.ImputeBeam wraps it), not a serving path: it drives
// a Session directly, outside the lock-step loop, and no server route or
// benchmark workload reaches it.
func (e *Engine) BeamImpute(known rules.Record, width int) (res Result, err error) {
	if width < 1 {
		return Result{}, fmt.Errorf("core: beam width %d < 1", width)
	}
	prompt, fromSlot, err := e.promptFor(known)
	if err != nil {
		return res, err
	}
	// The results are named so that this runs after a return has set them.
	checksBefore := e.solver.Stats().Checks
	defer func() { res.Stats.SolverChecks = e.solver.Stats().Checks - checksBefore }()

	// Known-prefix assertions shared by every beam.
	baseAssigns, err := knownEqs(e.binding, known)
	if err != nil {
		return res, err
	}
	if r := e.solver.CheckWith(baseAssigns...); r.Status != smt.Sat {
		return res, ErrInfeasible{Detail: fmt.Sprintf("prompt %q (%v)", prompt, r.Status)}
	}

	root, err := e.newPromptedCloneable(prompt)
	if err != nil {
		return res, err
	}

	type beamState struct {
		sess    Session
		slotIdx int // index into Slots (absolute)
		state   transition.State
		vals    []int64 // completed generated values (aligned with Slots[fromSlot:])
		logp    float64
		tokens  int
	}
	live := []beamState{{sess: root, slotIdx: fromSlot}}
	var finished []beamState

	slots := e.cfg.Slots
	for len(live) > 0 {
		type cand struct {
			parent int
			tok    int
			logp   float64
			isSep  bool
		}
		var cands []cand
		for bi := range live {
			b := &live[bi]
			slot := slots[b.slotIdx]
			allowed, err := e.beamAdmissible(b.vals, baseAssigns, slot, b.state, fromSlot)
			if err != nil {
				return res, err
			}
			if len(allowed) == 0 {
				continue // dead beam (cannot happen for the top beam: lookahead invariant)
			}
			lps := renormLogProbs(b.sess.Logits(), allowed, e.cfg.Temperature)
			sepID := e.cfg.Tok.ID(slot.Sep)
			for i, tok := range allowed {
				cands = append(cands, cand{parent: bi, tok: tok, logp: b.logp + lps[i], isSep: tok == sepID})
			}
		}
		if len(cands) == 0 {
			break
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].logp > cands[j].logp })
		if len(cands) > width {
			cands = cands[:width]
		}

		// Expand survivors; clone parents shared by multiple children.
		used := map[int]int{}
		var next []beamState
		for _, c := range cands {
			parent := live[c.parent]
			var sess Session
			if used[c.parent] == 0 {
				sess = parent.sess
			} else {
				cl, ok := parent.sess.(CloneableSession)
				if !ok {
					return res, fmt.Errorf("core: LM session %T does not support cloning (beam search needs CloneableSession)", parent.sess)
				}
				sess = cl.CloneSession()
			}
			used[c.parent]++
			if err := sess.Append(c.tok); err != nil {
				return res, err
			}
			nb := beamState{
				sess: sess, slotIdx: parent.slotIdx, state: parent.state,
				vals: append([]int64(nil), parent.vals...),
				logp: c.logp, tokens: parent.tokens + 1,
			}
			if c.isSep {
				nb.vals = append(nb.vals, parent.state.Value())
				nb.state = transition.State{}
				nb.slotIdx++
				if nb.slotIdx == len(slots) {
					finished = append(finished, nb)
					continue
				}
			} else {
				st, err := stepState(e, slots[parent.slotIdx], parent.state, e.cfg.Tok.Char(c.tok))
				if err != nil {
					return res, err
				}
				nb.state = st
			}
			next = append(next, nb)
		}
		live = next
		// Stop once no live beam can overtake the best finished one
		// (log-probabilities only decrease as tokens are appended).
		if len(finished) > 0 {
			bestFin := math.Inf(-1)
			for _, f := range finished {
				if f.logp > bestFin {
					bestFin = f.logp
				}
			}
			anyHope := false
			for _, b := range live {
				if b.logp > bestFin {
					anyHope = true
					break
				}
			}
			if !anyHope {
				break
			}
		}
	}
	if len(finished) == 0 {
		return res, ErrInfeasible{Detail: "beam search found no complete sequence"}
	}
	best := finished[0]
	for _, f := range finished[1:] {
		if f.logp > best.logp {
			best = f
		}
	}
	res.Rec = e.assemble(known, fromSlot, best.vals)
	res.Stats.Tokens = best.tokens
	res.Stats.LogProb = best.logp
	return res, nil
}

// beamAdmissible computes the admissible tokens for one beam at one step:
// the beam's completed values are passed as side constraints instead of
// being asserted (beams diverge, so the solver stack cannot hold them).
func (e *Engine) beamAdmissible(vals []int64, base []smt.Formula, slot Slot, st transition.State, fromSlot int) ([]int, error) {
	side := append([]smt.Formula(nil), base...)
	for i, v := range vals {
		s := e.cfg.Slots[fromSlot+i]
		side = append(side, smt.Eq(smt.V(e.slotVar(s)), smt.C(v)))
	}
	var sys *transition.System
	if e.cfg.Mode == StructureOnly || e.cfg.Rules == nil {
		sys = e.domainSystem(slot.Field)
	} else {
		v := e.slotVar(slot)
		sys = transition.New(e.maxDigits[slot.Field], func(qlo, qhi int64) bool {
			probe := append(append([]smt.Formula(nil), side...),
				smt.Ge(smt.V(v), smt.C(qlo)), smt.Le(smt.V(v), smt.C(qhi)))
			return e.solver.CheckWith(probe...).Status == smt.Sat
		})
	}
	digits, canEnd := sys.Admissible(st)
	allowed := make([]int, 0, 11)
	for d := 0; d <= 9; d++ {
		if digits[d] {
			allowed = append(allowed, e.digitTok[d])
		}
	}
	if canEnd {
		allowed = append(allowed, e.cfg.Tok.ID(slot.Sep))
	}
	return allowed, nil
}

// stepState advances a transition state by one digit (the oracle is not
// needed for stepping, only for admissibility, so a trivial one suffices).
func stepState(e *Engine, slot Slot, st transition.State, c byte) (transition.State, error) {
	sys := transition.New(e.maxDigits[slot.Field], func(int64, int64) bool { return true })
	return sys.Step(st, c)
}

// renormLogProbs computes log softmax over the allowed tokens only
// (temperature-scaled) — the same renormalization the sampler uses, so beam
// scores and sampling probabilities are directly comparable.
func renormLogProbs(logits []float32, allowed []int, temp float64) []float64 {
	maxL := math.Inf(-1)
	ls := make([]float64, len(allowed))
	for i, id := range allowed {
		ls[i] = float64(logits[id]) / temp
		if ls[i] > maxL {
			maxL = ls[i]
		}
	}
	var sum float64
	for i := range ls {
		sum += math.Exp(ls[i] - maxL)
	}
	logZ := maxL + math.Log(sum)
	for i := range ls {
		ls[i] -= logZ
	}
	return ls
}

// newPromptedCloneable starts a cloneable LM session primed with BOS and the
// prompt, falling back to the plain session for non-cloneable LMs (beam
// width 1 never clones).
func (e *Engine) newPromptedCloneable(prompt string) (Session, error) {
	var sess Session
	if a, ok := e.cfg.LM.(nnLM); ok {
		sess = a.newCloneable()
	} else {
		sess = e.cfg.LM.NewSession()
	}
	if err := sess.Append(vocab.BOS); err != nil {
		return nil, err
	}
	ids, err := e.cfg.Tok.Encode(prompt)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := sess.Append(id); err != nil {
			return nil, err
		}
	}
	return sess, nil
}
