package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/ilp"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/smt"
	"repro/internal/vocab"
)

// Vanilla decodes with free sampling — no rules, no masking beyond the
// tokenizer's vocabulary — matching the paper's "Vanilla GPT-2" baseline.
// Generation stops when the grammar's final separator appears (or the
// context fills). Malformed outputs are re-sampled up to MaxRetries; the
// retry count is reported in Stats.Malformed. Like Impute, it is a batch of
// one lane (MethodFree) on the receiver.
func (e *Engine) Vanilla(known rules.Record, rng *rand.Rand) (Result, error) {
	return e.decodeOne(context.Background(), MethodFree, known, rng)
}

// Rejection implements the rejection-sampling baseline: sample freely and
// discard until the output satisfies every rule, up to MaxAttempts. The
// paper's Fig 3 shows why this is hopeless at scale — the model repeats the
// same mistakes because nothing guides it.
func (e *Engine) Rejection(known rules.Record, rng *rand.Rand) (Result, error) {
	return e.decodeOne(context.Background(), MethodRejection, known, rng)
}

// PostHoc implements post-inference enforcement (§2.2, the NetDiffusion /
// Zoom2Net-CEM strategy): sample freely once, then, if any rule is violated,
// project the output onto the feasible region by L1-minimal integer repair.
// The projection guarantees compliance but optimizes numerical distance, not
// likelihood — the fidelity cost the paper measures.
func (e *Engine) PostHoc(known rules.Record, rng *rand.Rand) (Result, error) {
	return e.decodeOne(context.Background(), MethodPostHoc, known, rng)
}

// startFree sets up a free-sampling lane (every method but MethodGuided):
// no solver frame and no prefix cache, only BOS plus the prompt queued for
// the LM. On a setup failure the lane is already finished with the error.
func (ld *laneDecoder) startFree(plan *promptPlan) {
	e := ld.e
	if ld.method == MethodRejection && e.cfg.Rules != nil {
		ld.res.Stats.Attempts = 1
	}
	switch {
	case ld.method > MethodPostHoc:
		ld.fail(fmt.Errorf("core: unknown decode method %d", ld.method))
	case ld.method == MethodRejection && e.cfg.Rules == nil:
		ld.fail(errors.New("core: rejection sampling requires a rule set"))
	case ld.method == MethodPostHoc && e.cfg.Rules == nil:
		ld.fail(errors.New("core: post-hoc repair requires a rule set"))
	case plan.err != nil:
		ld.fail(plan.err)
	}
	if ld.finished {
		return
	}
	ld.fromSlot = plan.fromSlot
	ld.prompt = append(append(make([]int, 0, len(plan.ids)+1), vocab.BOS), plan.ids...)
	ld.pending = ld.prompt
	// All character tokens plus EOS are fair game; PAD/BOS are excluded
	// (the model never saw them mid-sequence).
	ld.allowed = make([]int, 0, e.cfg.Tok.Size())
	for id := vocab.FirstChar; id < e.cfg.Tok.Size(); id++ {
		ld.allowed = append(ld.allowed, id)
	}
	ld.allowed = append(ld.allowed, vocab.EOS)
}

// maskFree is mask for a free-sampling lane: the choice reads the logits
// unless a prompt token is queued. It checks the context before every
// token, prompt tokens included: a restarting rejection lane re-feeds its
// prompt hundreds of times.
func (ld *laneDecoder) maskFree() (bool, error) {
	if err := ld.ctx.Err(); err != nil {
		return false, err
	}
	return len(ld.pending) == 0, nil
}

// pickFree is pick for a free-sampling lane: a queued prompt token, or one
// sampled from every character plus EOS. A sampled EOS ends the sample
// without feeding the LM, so the lane either finishes — pick returns with
// done() true and nothing to feed — or restarts and hands out its BOS.
func (ld *laneDecoder) pickFree(logits []float32) (int, error) {
	if len(ld.pending) == 0 {
		tok := ld.e.sampleMasked(logits, ld.allowed, ld.rng)
		ld.cur.Tokens++
		if tok != vocab.EOS {
			ld.sampled = true
			return tok, nil
		}
		if ld.endSample(); ld.finished {
			return 0, nil
		}
	}
	ld.sampled = false
	tok := ld.pending[0]
	ld.pending = ld.pending[1:]
	return tok, nil
}

// advanceFree is advance for a free-sampling lane: a consumed sampled token
// extends the sample, which ends at the grammar's final separator or at a
// generous length cap (the longest legal record, twice, plus slack).
func (ld *laneDecoder) advanceFree(tok int) error {
	if !ld.sampled {
		return nil
	}
	c := ld.e.cfg.Tok.Char(tok)
	ends := ld.sampleEnds(c)
	ld.sample = append(ld.sample, c)
	if ends {
		ld.endSample()
	}
	return nil
}

// sampleEnds reports whether appending c ends the current free sample.
func (ld *laneDecoder) sampleEnds(c byte) bool {
	e := ld.e
	return c == e.cfg.Slots[len(e.cfg.Slots)-1].Sep || len(ld.sample)+1 >= 2*e.tailChars[0]+8
}

// refuse tells the lane that the LM refused the token next returned (e.g.
// the NN context is full). A guided lane fails with le. So does a free lane
// whose prompt does not fit, with le's cause, as a Session's Append reports
// it; a refused sampled token instead ends the free sample without it.
func (ld *laneDecoder) refuse(le *nn.LaneError) {
	switch {
	case ld.method == MethodGuided:
		ld.fail(le)
	case !ld.sampled:
		ld.fail(le.Err)
	default:
		ld.endSample()
	}
}

// endSample parses the finished free sample and decides the lane's fate by
// its method: a malformed sample restarts the lane until MaxRetries
// re-samples are spent; rejection restarts a violating record until
// MaxAttempts attempts are spent; post-hoc repairs it. A restart re-queues
// BOS plus the prompt and sets reset, which asks the driver to empty the
// lane's LM state before feeding them; the lane keeps its RNG. The stats
// match the per-method results: an attempt's Tokens and Malformed count
// toward a rejection lane only once the attempt parses.
func (ld *laneDecoder) endSample() {
	e := ld.e
	vals, perr := e.parseBySlots(string(ld.sample), ld.fromSlot)
	ld.sample = ld.sample[:0]
	if perr != nil {
		ld.cur.Malformed++
		if ld.cur.Malformed <= e.cfg.MaxRetries {
			ld.pending, ld.reset = ld.prompt, true
			return
		}
		if ld.method != MethodRejection {
			ld.res.Stats = ld.cur
		}
		ld.fail(fmt.Errorf("core: free sampling produced no well-formed record in %d attempts", e.cfg.MaxRetries+1))
		return
	}
	rec := e.assemble(ld.known, ld.fromSlot, vals)
	if ld.method != MethodRejection {
		ld.res = Result{Rec: rec, Stats: ld.cur}
		if ld.method == MethodPostHoc {
			ld.err = e.postHocRepair(ld.ctx, ld.known, ld.fromSlot, &ld.res)
		}
		ld.finish()
		return
	}
	ld.res.Stats.Tokens += ld.cur.Tokens
	ld.res.Stats.Malformed += ld.cur.Malformed
	ld.cur = Stats{}
	vs, err := e.cfg.Rules.Violations(rec)
	switch {
	case err != nil:
		ld.fail(err)
	case len(vs) == 0:
		ld.res.Rec = rec
		ld.finish()
	case ld.res.Stats.Attempts >= e.cfg.MaxAttempts:
		ld.fail(fmt.Errorf("core: rejection sampling exhausted %d attempts", e.cfg.MaxAttempts))
	default:
		ld.res.Stats.Attempts++
		ld.pending, ld.reset = ld.prompt, true
	}
}

// postHocRepair is post-hoc enforcement of res.Rec: if any rule is violated, the
// generated slots are moved to the L1-nearest compliant values, with the
// known prefix pinned.
func (e *Engine) postHocRepair(ctx context.Context, known rules.Record, fromSlot int, res *Result) error {
	vs, err := e.cfg.Rules.Violations(res.Rec)
	if err != nil || len(vs) == 0 {
		return err
	}

	// Repair on a fresh solver (the engine's solver may be configured for
	// LeJIT mode; repair needs the rules regardless of engine mode), bound
	// to the lane's context. The node budget is deliberately tight:
	// ilp.Repair degrades gracefully to the best incumbent when a probe
	// exhausts it, mirroring the time-limited ILPs of real CEM-style systems.
	s := smt.NewSolver()
	s.SetContext(ctx)
	s.MaxNodes = 30_000
	if e.cfg.MaxNodes > 0 {
		s.MaxNodes = e.cfg.MaxNodes
	}
	b := rules.Instantiate(s, e.cfg.Schema)
	f, err := e.cfg.Rules.CompileAll(b)
	if err != nil {
		return err
	}
	s.Assert(f)
	// Pin the known prefix; repair only the generated slots.
	for fn, vals := range known {
		bv, _ := b.Vars(fn)
		for i, v := range vals {
			s.Assert(smt.Eq(smt.V(bv[i]), smt.C(v)))
		}
	}
	var free []smt.Var
	var targets []int64
	for _, slot := range e.cfg.Slots[fromSlot:] {
		bv, _ := b.Vars(slot.Field)
		free = append(free, bv[slot.Index])
		targets = append(targets, res.Rec[slot.Field][slot.Index])
	}
	checksBefore := s.Stats().Checks
	repaired, st := ilp.Repair(s, free, targets)
	res.Stats.SolverChecks += s.Stats().Checks - checksBefore
	if st != smt.Sat {
		if err := ctx.Err(); err != nil {
			return err
		}
		return ErrInfeasible{Detail: fmt.Sprintf("repair %v", st)}
	}
	for i, slot := range e.cfg.Slots[fromSlot:] {
		res.Rec[slot.Field][slot.Index] = repaired[free[i]]
	}
	res.Stats.Repaired = true
	return nil
}
