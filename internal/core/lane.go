package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/prefixcache"
	"repro/internal/rules"
	"repro/internal/smt"
	"repro/internal/transition"
	"repro/internal/vocab"
)

// laneDecoder is one record's decoding loop turned inside out: instead of
// driving an LM session itself, it hands its driver one token at a time
// (next) and is told when the LM has consumed it (advance). Its one driver is
// the lock-step loop (lockstep.go), which steps one laneDecoder per batch
// lane between shared forward passes; a direct Impute/Generate/Vanilla/... is
// a batch of one lane. A record's solver probes, RNG draws, and token
// decisions are all made here, per lane, so its output does not depend on
// which records share its batch.
//
// method picks the loop: the guided (LeJIT) one below, or free sampling for
// the baselines (baselines.go). All guided solver work happens on the
// decoder's engine, which must be dedicated to this lane until finish: the
// known prefix is asserted under a Push frame that finish pops.
type laneDecoder struct {
	e      *Engine
	ctx    context.Context
	method Method
	rng    *rand.Rand
	known  rules.Record

	res          Result
	err          error
	checksBefore uint64
	pushed       bool
	finished     bool

	fromSlot int
	pending  []int // BOS + prompt tokens not yet handed to the LM
	vals     []int64

	// Prefix-cache state. key accumulates every token the LM has consumed
	// (BOS first), keySlots the grammar slots those tokens complete; once
	// the prompt is consumed, key is the lane's cache key. useCache is set
	// for a lane whose prompt is neither empty nor the whole record. warm
	// holds a pending cache hit until the driver claims it via applyWarm;
	// capture is the driver-installed hook that freezes the LM state at the
	// end of the prompt into a snapshot (nil when the batch session cannot
	// clone a lane out).
	useCache bool
	warm     *prefixcache.Hit
	key      []int
	keySlots int
	capture  func() *nn.Session

	// Per-slot state, rebuilt by beginSlot for e.cfg.Slots[slot].
	slot       int
	inSlot     bool
	oracle     *slotOracle // nil in StructureOnly / rule-free modes
	sys        *transition.System
	structural *transition.System
	state      transition.State
	sepID      int
	sampled    bool  // whether the last token from pick was sampled (vs prompt)
	allowed    []int // the step's admissible tokens; a free lane's fixed mask
	nStruct    int   // the step's structurally allowed token count

	// Free-sampling state (baselines.go). prompt is BOS plus the prompt,
	// re-queued on every restart; sample is the current sample's text; cur
	// the current attempt's Tokens and Malformed. reset asks the driver to
	// empty the lane's LM state before its next token.
	prompt []int
	sample []byte
	cur    Stats
	reset  bool

	// Streaming state (WithEmit, DESIGN.md §16). emitTok/emitSlots mark how
	// far along key the hook has been fed.
	emit      EmitFn
	emitTok   int // tokens of key already rendered to the hook
	emitSlots int // slots already rendered to the hook
}

// promptPlan is a prompt rendered and tokenized once. DecodeRequests plans
// a batch's prompts up front so identical ones are encoded a single time and
// shared read-only across lanes; a direct Impute/Generate plans on the fly.
type promptPlan struct {
	text     string
	fromSlot int
	ids      []int // encoded prompt tokens, BOS excluded; never mutated
	err      error
}

// planPrompt renders and tokenizes known's prompt. A non-nil byText is the
// batch's plan table: a prompt already in it is returned instead of encoded
// again, a new one is added.
func (e *Engine) planPrompt(known rules.Record, byText map[string]*promptPlan) *promptPlan {
	text, fromSlot, err := e.promptFor(known)
	if err != nil {
		return &promptPlan{err: err}
	}
	if p, ok := byText[text]; ok && p.fromSlot == fromSlot {
		return p
	}
	p := &promptPlan{text: text, fromSlot: fromSlot}
	p.ids, p.err = e.cfg.Tok.Encode(text)
	if byText != nil {
		byText[text] = p
	}
	return p
}

// newLaneDecoder starts one record's decode under method on e (plan is the
// prompt already planned, nil → plan here). A guided decode asserts the
// known prefix under a Push frame, proves it feasible (by a Check, unless a
// witness for exactly this stack is already in hand), and queues BOS plus
// the rendered prompt for the LM; a free-sampling one only queues them. On
// any setup failure the returned decoder is already finished with the error
// recorded.
func (e *Engine) newLaneDecoder(ctx context.Context, method Method, known rules.Record, rng *rand.Rand, plan *promptPlan) *laneDecoder {
	if ctx == nil {
		ctx = context.Background()
	}
	ld := &laneDecoder{e: e, ctx: ctx, method: method, rng: rng, known: known, emit: emitFor(ctx)}
	if plan == nil {
		plan = e.planPrompt(known, nil)
	}
	if method != MethodGuided {
		ld.startFree(plan)
		return ld
	}
	if plan.err != nil {
		ld.fail(plan.err)
		return ld
	}
	ld.fromSlot, ld.slot = plan.fromSlot, plan.fromSlot
	ld.checksBefore = e.solver.Stats().Checks
	ld.pending = append(append(make([]int, 0, len(plan.ids)+1), vocab.BOS), plan.ids...)
	// key never outgrows the prompt plus the widest rendering of every slot
	// left, so advance appends to it without allocating.
	ld.key = make([]int, 0, len(ld.pending)+e.tailChars[plan.fromSlot])

	// Whole-prompt lookup before any solver or LM work. Only nn-backed
	// engines participate: a cached snapshot is a frozen nn.Session, which
	// is meaningless to any other LM implementation. An empty prompt has
	// nothing to restore, and a prompt that is the whole record nothing to
	// decode, so neither looks up nor captures.
	if cache := e.cfg.PrefixCache; cache != nil && !prefixCacheDisabled(ctx) &&
		plan.fromSlot > 0 && plan.fromSlot < len(e.cfg.Slots) {
		if _, ok := e.cfg.LM.(nnLM); ok {
			ld.useCache = true
			ld.warm = cache.Lookup(ld.pending, e.fingerprint)
		}
	}

	// Attach the request's context to the solver for the lane's lifetime:
	// a cancelled request now abandons a Check mid-search (the solver polls
	// the context between nodes), not just between tokens. finish detaches
	// it before the engine returns to the pool.
	e.solver.SetContext(ctx)
	e.solver.Push()
	ld.pushed = true
	eqs, err := knownEqs(e.binding, known)
	if err != nil {
		ld.fail(err)
		return ld
	}
	for _, eq := range eqs {
		e.solver.Assert(eq)
	}
	pinned := len(eqs) > 0
	if ld.warm != nil && ld.warm.Model != nil {
		// A hit with a witness: the snapshot's model satisfies the rules
		// plus every value its key pins, and the key is this exact prompt —
		// the same assertion stack just built (the grammar makes token
		// prefix ⇄ value assignment one-to-one, and the rule-epoch
		// fingerprint pinned the rule side). That proves Sat, so the
		// feasibility Check is skipped and the witness seeds the first
		// slot's oracle directly.
		e.noteModel(ld.warm.Model)
	} else if !pinned && e.rulesModel != nil {
		// Nothing pinned: the stack is the rules under an empty frame, which
		// the root engine's construction-time Check already proved Sat. Its
		// model seeds the first slot's oracle; the copy is the engine's own,
		// since patching rewrites lastModel in place.
		e.noteModel(append(e.lastModel[:0], e.rulesModel...))
	} else {
		r := e.solver.Check()
		if r.Status == smt.Unknown {
			// Budget or cancellation — not a proof of infeasibility.
			ld.fail(fmt.Errorf("core: prompt feasibility check gave up: %w", r.Err))
			return ld
		}
		if r.Status != smt.Sat {
			ld.fail(ErrInfeasible{Detail: fmt.Sprintf("prompt %q (%v)", plan.text, r.Status)})
			return ld
		}
		// The feasibility model doubles as the first slot's witness seed.
		e.noteSolverModel(r.Model)
	}

	ld.vals = make([]int64, 0, len(e.cfg.Slots)-plan.fromSlot)
	ld.allowed = make([]int, 0, 11)
	return ld
}

// applyWarm consumes the lane's pending cache hit: the whole prompt is
// dropped from the LM feed queue and the restored snapshot is returned for
// the driver to copy into its lane (it is shared with the cache and other
// hits, so only read). Returns nil on a cold lane. Must be called before the
// first mask().
func (ld *laneDecoder) applyWarm() *nn.Session {
	if ld.warm == nil || ld.finished {
		return nil
	}
	h := ld.warm
	ld.warm = nil
	ld.key = append(ld.key, ld.pending...)
	ld.keySlots = h.Slots
	ld.pending = nil
	ld.res.Stats.PrefixHitTokens = len(ld.key)
	return h.Sess
}

// done reports whether the record is complete (successfully or not); once
// done, result() holds the outcome and the solver frame has been popped.
func (ld *laneDecoder) done() bool { return ld.finished }

// result returns the decode outcome; valid once done.
func (ld *laneDecoder) result() (Result, error) { return ld.res, ld.err }

// fail finishes the lane with err.
func (ld *laneDecoder) fail(err error) {
	ld.err = err
	ld.finish()
}

// finish settles the stats and pops the lane's solver frame, if it pushed
// one (a free-sampling lane never does). Idempotent.
func (ld *laneDecoder) finish() {
	if ld.finished {
		return
	}
	ld.finished = true
	if ld.pushed {
		ld.res.Stats.SolverChecks = ld.e.solver.Stats().Checks - ld.checksBefore
		ld.e.solver.Pop()
		ld.pushed = false
	}
	// Detach the request context so a pooled engine never carries a dead
	// context into its next lane.
	ld.e.solver.SetContext(nil)
}

// mask and pick choose the next token to feed the LM, in two halves: a
// queued prompt token, or one sampled from the LM's logits under the slot's
// admissible mask. mask runs the step's solver work and reports whether the
// choice reads the logits — only a sample among two or more tokens does, so a
// prompt token or a forced one never needs them — and pick then chooses,
// given the logits after the lane's previous token when mask asked for
// them (nil otherwise). The decode loop runs every lane's mask before it
// computes the logits the lanes asked for, in one pass. Unless the lane is
// done after pick — a free lane whose sample ended on EOS may finish there
// — the caller must feed the token to the LM and then call advance with it.
func (ld *laneDecoder) mask() (bool, error) {
	if ld.finished {
		return false, fmt.Errorf("core: laneDecoder.mask after finish")
	}
	if ld.method != MethodGuided {
		return ld.maskFree()
	}
	if len(ld.pending) > 0 {
		return false, nil
	}
	e := ld.e
	if !ld.inSlot {
		if err := ld.beginSlot(); err != nil {
			return false, err
		}
	}
	// One context check per emitted token — before this round of solver
	// probes — so a cancelled request stops burning solver work mid-decode.
	if err := ld.ctx.Err(); err != nil {
		return false, err
	}
	slot := e.cfg.Slots[ld.slot]
	if e.cfg.FaultHook != nil {
		if err := e.cfg.FaultHook(FaultSite{
			Known: ld.known, Field: slot.Field, Index: slot.Index,
			Tokens: ld.res.Stats.Tokens,
		}); err != nil {
			return false, err
		}
	}
	digits, canEnd := ld.sys.Admissible(ld.state)
	if ld.oracle != nil {
		if err := ld.oracle.budgetErr(); err != nil {
			return false, lookaheadGaveUp(slot, err)
		}
	}
	ld.allowed = ld.allowed[:0]
	for d := 0; d <= 9; d++ {
		if digits[d] {
			ld.allowed = append(ld.allowed, e.digitTok[d])
		}
	}
	if canEnd {
		ld.allowed = append(ld.allowed, ld.sepID)
	}
	if len(ld.allowed) == 0 {
		// Unreachable if the lookahead invariant holds: the state was only
		// entered because some completion existed.
		return false, fmt.Errorf("core: dead end at %s[%d] prefix %s (invariant breach)", slot.Field, slot.Index, ld.state)
	}
	sDigits, sEnd := ld.structural.Admissible(ld.state)
	ld.nStruct = 0
	for d := 0; d <= 9; d++ {
		if sDigits[d] {
			ld.nStruct++
		}
	}
	if sEnd {
		ld.nStruct++
	}
	if len(ld.allowed) < ld.nStruct {
		ld.res.Stats.MaskedSteps++
		if len(ld.allowed) == 1 {
			ld.res.Stats.ForcedSteps++
		}
	}
	return len(ld.allowed) > 1, nil
}

// pick is the second half of choosing the next token (see mask).
func (ld *laneDecoder) pick(logits []float32) (int, error) {
	if ld.method != MethodGuided {
		return ld.pickFree(logits)
	}
	if len(ld.pending) > 0 {
		tok := ld.pending[0]
		ld.pending = ld.pending[1:]
		ld.sampled = false
		return tok, nil
	}
	e := ld.e
	tok := e.sampleMasked(logits, ld.allowed, ld.rng)
	if e.cfg.TraceHook != nil {
		slot := e.cfg.Slots[ld.slot]
		e.cfg.TraceHook(TraceStep{
			Field: slot.Field, Index: slot.Index, Prefix: ld.state.String(),
			Admissible: append([]int(nil), ld.allowed...),
			Structural: ld.nStruct, Chosen: tok, Known: ld.known,
		})
	}
	ld.sampled = true
	return tok, nil
}

// closes reports whether tok, which pick just returned, closes the lane's
// record: the last slot's sampled separator, or the token that ends a free
// sample. advance(tok) then completes the record, or restarts the lane from
// its prompt, so the LM's logits after tok are never read and the driver
// only consumes it (BatchSession.Consume).
func (ld *laneDecoder) closes(tok int) bool {
	switch {
	case !ld.sampled:
		return false
	case ld.method != MethodGuided:
		return ld.sampleEnds(ld.e.cfg.Tok.Char(tok))
	}
	return tok == ld.sepID && ld.slot == len(ld.e.cfg.Slots)-1
}

// beginSlot builds the transition system for the slot about to decode:
// solver-backed lookahead in LeJIT mode, grammar/domain masking otherwise,
// plus the purely structural mirror used for Masked/Forced accounting.
func (ld *laneDecoder) beginSlot() error {
	e := ld.e
	slot := e.cfg.Slots[ld.slot]
	ld.oracle = nil
	// structural mirrors the grammar/width automaton with the domain as its
	// oracle, so Masked/Forced stats count only rule-driven pruning, not
	// structural necessities like the separator after a max-width value.
	ld.structural = e.domainSystem(slot.Field)
	if e.cfg.Mode == StructureOnly || e.cfg.Rules == nil {
		ld.sys = ld.structural
	} else {
		// The slot oracle answers probes from per-slot interval state
		// (oracle.go) and falls back to solver probes; batching lets it
		// drain a candidate's whole completion union locally before any
		// solver work.
		ld.oracle = e.newSlotOracle(e.slotVar(slot), &ld.res.Stats)
		ld.sys = transition.NewBatch(e.maxDigits[slot.Field], ld.oracle.FeasibleAny)
	}
	if !ld.sys.HasPath() {
		// A budget-starved or cancelled probe answers false; surface that as
		// the lane's failure, not as a (false) proof of infeasibility.
		if ld.oracle != nil {
			if err := ld.oracle.budgetErr(); err != nil {
				return lookaheadGaveUp(slot, err)
			}
		}
		return ErrInfeasible{Detail: fmt.Sprintf("no feasible value for %s[%d]", slot.Field, slot.Index)}
	}
	ld.sepID = e.cfg.Tok.ID(slot.Sep)
	ld.state = ld.sys.Start()
	ld.inSlot = true
	return nil
}

// advance records that the LM consumed tok (the value pick returned). It
// performs the post-append bookkeeping: token accounting, value completion
// on a separator (dynamic partial instantiation: the finished value is
// asserted so the solver's view of active rules advances with generation),
// prefix-cache snapshot capture at the end of the prompt, and record
// assembly after the last slot.
func (ld *laneDecoder) advance(tok int) error {
	if ld.method != MethodGuided {
		return ld.advanceFree(tok)
	}
	e := ld.e
	ld.key = append(ld.key, tok)
	// A slot boundary is the separator that completes slot keySlots —
	// whether it arrived as prompt text or was just sampled. (A separator
	// token can never be confused with a digit, so the comparison is exact.)
	if ld.keySlots < len(e.cfg.Slots) && tok == e.cfg.Tok.ID(e.cfg.Slots[ld.keySlots].Sep) {
		ld.keySlots++
	}
	if ld.sampled {
		ld.res.Stats.Tokens++
		if tok == ld.sepID {
			v := ld.state.Value()
			ld.vals = append(ld.vals, v)
			slot := e.cfg.Slots[ld.slot]
			wasValid := e.lastModel != nil && e.lastModelEpoch == e.solver.Epoch()
			e.solver.Assert(smt.Eq(smt.V(e.slotVar(slot)), smt.C(v)))
			// Carry the witness model across the assert when possible: if it
			// already assigned the pinned value it remains a model of the
			// extended stack as-is; otherwise try patching it to the value
			// (a bounded repair of the conjuncts the patch breaks, see
			// patchValue). Keeping the model alive here is what keeps the
			// patch fast path productive for the following slots.
			if wasValid && e.patchValue(e.slotVar(slot), v) {
				e.lastModelEpoch = e.solver.Epoch()
			}
			ld.inSlot = false
			ld.slot++
		} else {
			st, err := ld.sys.Step(ld.state, e.cfg.Tok.Char(tok))
			if err != nil {
				return fmt.Errorf("core: stepping transition system: %w", err)
			}
			ld.state = st
		}
	}
	if ld.useCache && !ld.sampled && len(ld.pending) == 0 {
		// tok was the prompt's last token, the separator that ends it.
		ld.capturePrompt()
	}
	if ld.complete() {
		ld.res.Rec = e.assemble(ld.known, ld.fromSlot, ld.vals)
		ld.finish()
	}
	if ld.emit != nil {
		ld.flushEmit()
	}
	return nil
}

// flushEmit renders every completed-but-unstreamed slot of key to the emit
// hook. A completed slot is final — every token is decided exactly once —
// so streamed chunks are never retracted.
func (ld *laneDecoder) flushEmit() {
	e := ld.e
	for ld.emitSlots < ld.keySlots {
		if ld.emitTok == 0 {
			ld.emitTok = 1 // key[0] is BOS, which renders to nothing
		}
		sep := e.cfg.Tok.ID(e.cfg.Slots[ld.emitSlots].Sep)
		end := ld.emitTok
		for end < len(ld.key) && ld.key[end] != sep {
			end++
		}
		if end >= len(ld.key) {
			return // slot still incomplete (unreachable while emitSlots < keySlots)
		}
		buf := make([]byte, 0, end+1-ld.emitTok)
		for _, tok := range ld.key[ld.emitTok : end+1] {
			buf = append(buf, e.cfg.Tok.Char(tok))
		}
		ld.emit(ld.emitSlots, string(buf))
		ld.emitTok = end + 1
		ld.emitSlots++
	}
}

// complete reports whether every slot has been decoded.
func (ld *laneDecoder) complete() bool {
	return len(ld.pending) == 0 && !ld.inSlot && ld.slot >= len(ld.e.cfg.Slots)
}

// lookaheadGaveUp wraps the sticky budget/cancellation error a slot oracle
// recorded, naming the slot whose lookahead the solver abandoned.
func lookaheadGaveUp(slot Slot, err error) error {
	return fmt.Errorf("core: solver gave up during lookahead for %s[%d]: %w", slot.Field, slot.Index, err)
}

// capturePrompt freezes the lane's paired (LM, solver) state at the end of
// its prompt and inserts it into the prefix cache under BOS + prompt, unless
// that key is cached already or capture is impossible. The witness is the
// prompt feasibility Check's model: no value has been asserted since, so it
// is a model of exactly the key's assertions, and a hit stands it in for
// the Check.
func (ld *laneDecoder) capturePrompt() {
	e := ld.e
	cache := e.cfg.PrefixCache
	if ld.capture == nil || e.lastModel == nil || e.lastModelEpoch != e.solver.Epoch() ||
		!cache.NeedsInsert(ld.key, e.fingerprint) {
		return
	}
	sess := ld.capture()
	if sess == nil {
		return
	}
	snap := &prefixcache.Snapshot{
		Sess: sess, Model: append([]int64(nil), e.lastModel...),
		RuleEpoch: e.fingerprint, Slots: ld.keySlots,
	}
	if cache.Insert(ld.key, snap) {
		ld.res.Stats.PrefixCaptures++
	}
}
