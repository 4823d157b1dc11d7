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

// laneDecoder is the guided (LeJIT) decoding loop turned inside out: instead
// of driving an LM session itself, it hands its driver one token at a time
// (next) and is told when the LM has consumed it (advance). Its one driver is
// the lock-step loop (lockstep.go), which steps one laneDecoder per batch
// lane between shared forward passes; a direct Impute/Generate is a batch of
// one lane. A record's solver probes, RNG draws, and token decisions are all
// made here, per lane, so its output does not depend on which records share
// its batch.
//
// All solver work happens on the decoder's engine, which must be dedicated
// to this lane until finish: the known prefix is asserted under a Push frame
// that finish pops.
type laneDecoder struct {
	e     *Engine
	ctx   context.Context
	rng   *rand.Rand
	known rules.Record

	res          Result
	err          error
	checksBefore uint64
	pushed       bool
	finished     bool

	fromSlot int
	pending  []int // BOS + prompt tokens not yet handed to the LM
	vals     []int64

	// Prefix-cache state. key accumulates every token the LM has consumed
	// (BOS first), keySlots the grammar slots those tokens complete; together
	// they name the radix-tree position of the lane's current prefix. warm
	// holds a pending cache hit until the driver claims it via applyWarm;
	// capture is the driver-installed hook that freezes the LM state at a
	// boundary (nil when the batch session cannot clone a lane out).
	useCache bool
	warm     *prefixcache.Hit
	key      []int
	keySlots int
	capture  func() *nn.Session
	genCaps  int // generated-region snapshots taken by this lane

	// Per-slot state, rebuilt by beginSlot for e.cfg.Slots[slot].
	slot       int
	inSlot     bool
	oracle     *slotOracle // nil in StructureOnly / rule-free modes
	sys        *transition.System
	structural *transition.System
	state      transition.State
	sepID      int
	sampled    bool // whether the last token from next was sampled (vs prompt)
	allowed    []int

	// Speculative decoding (spec.go, DESIGN.md §13). spec is non-nil only
	// when a driver installed a rewind hook and the effective lookahead is
	// positive; draw is the lane's sampling RNG surface — rng itself on the
	// exact path, the replaying specRNG when speculating.
	spec *laneSpec
	draw floatSource
	// mergeO carries the violated run's validation replica from a rollback
	// to the re-decide's beginSlot: interval knowledge proven at mergeMark's
	// stack that the fresh oracle may start from (see rollbackTo).
	mergeO    *slotOracle
	mergeMark int

	// Streaming state (WithEmit, DESIGN.md §16). emitTok/emitSlots mark how
	// far along key the hook has been fed; flushEmit only ever runs outside
	// an open speculation window, so everything at or before emitTok is
	// committed and a rollback (which truncates to a checkpoint taken after
	// the last flush) can never cut below it.
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

// newLaneDecoder starts one record's guided decode on e: it asserts the
// known prefix under a Push frame, runs the feasibility pre-check, and
// queues BOS plus the rendered prompt for the LM (plan is the prompt already
// planned, nil → plan here). On any setup failure the returned decoder is
// already finished with the error recorded.
func (e *Engine) newLaneDecoder(ctx context.Context, known rules.Record, rng *rand.Rand, plan *promptPlan) *laneDecoder {
	if ctx == nil {
		ctx = context.Background()
	}
	ld := &laneDecoder{e: e, ctx: ctx, rng: rng, draw: rng, known: known, emit: emitFor(ctx)}
	if plan == nil {
		plan = e.planPrompt(known, nil)
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

	// Longest-prefix lookup before any solver or LM work. Only nn-backed
	// engines participate: a cached snapshot is a frozen nn.Session, which
	// is meaningless to any other LM implementation.
	if cache := e.cfg.PrefixCache; cache != nil && !prefixCacheDisabled(ctx) {
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
	for f, vs := range known {
		bv, ok := e.binding.Vars(f)
		if !ok {
			ld.fail(fmt.Errorf("core: known field %q not bound", f))
			return ld
		}
		for i, v := range vs {
			e.solver.Assert(smt.Eq(smt.V(bv[i]), smt.C(v)))
		}
	}
	if ld.warm != nil && ld.warm.Tokens == len(ld.pending) && ld.warm.Model != nil {
		// Full-prompt hit with a witness: the snapshot's model satisfies the
		// rules plus every value its key pins, and the key is this exact
		// prompt — the same assertion stack just built (the grammar makes
		// token prefix ⇄ value assignment one-to-one, and the rule-epoch
		// fingerprint pinned the rule side). That proves Sat, so the
		// feasibility Check is skipped and the witness seeds the first
		// slot's oracle directly.
		e.noteModel(ld.warm.Model)
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

// applyWarm consumes the lane's pending cache hit: the already-consumed
// prefix is dropped from the LM feed queue and the caller takes ownership of
// the restored session (the driver copies it into its lane and releases
// it). Returns nil on a cold lane. Must be called before the first next().
func (ld *laneDecoder) applyWarm() *nn.Session {
	if ld.warm == nil || ld.finished {
		return nil
	}
	h := ld.warm
	ld.warm = nil
	ld.key = append(ld.key, ld.pending[:h.Tokens]...)
	ld.keySlots = h.Slots
	ld.pending = ld.pending[h.Tokens:]
	ld.res.Stats.PrefixHitTokens = h.Tokens
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

// finish settles the stats and pops the lane's solver frame. Idempotent.
func (ld *laneDecoder) finish() {
	if ld.finished {
		return
	}
	ld.finished = true
	if ld.warm != nil {
		// A hit the driver never claimed: drop its page references.
		ld.warm.Sess.Release()
		ld.warm = nil
	}
	if ld.spec != nil {
		// Captures still staged belong to a window that never validated
		// (the lane failed mid-window); its journaled asserts sit above the
		// lane's Push frame, so the Pop below discards them.
		dropCaps(ld.spec.caps)
		ld.spec.caps = ld.spec.caps[:0]
		ld.spec.open = false
	}
	ld.res.Stats.SolverChecks = ld.e.solver.Stats().Checks - ld.checksBefore
	if ld.pushed {
		ld.e.solver.Pop()
		ld.pushed = false
	}
	// Detach the request context so a pooled engine never carries a dead
	// context into its next lane.
	ld.e.solver.SetContext(nil)
}

// next returns the next token to feed the LM: a queued prompt token, or one
// sampled from logits under the slot's admissible mask. logits are the LM's
// logits after the lane's previous token and are only read once the prompt
// has drained (BOS always precedes the first sampled token, so the first
// call may pass nil). The caller must feed the token to the LM and then call
// advance with it.
//
// With speculation armed, a step error inside an open window first settles
// the window: if the committed prefix is exact the error is real and
// propagates; if a rollback erased the erroring position, the loop retries
// it on the exact path — the rollback restored the LM's logits buffer in
// place, so the caller's logits slice already shows the retried position.
func (ld *laneDecoder) next(logits []float32) (int, error) {
	for {
		tok, err := ld.step(logits)
		if err == nil {
			return tok, nil
		}
		if sp := ld.spec; sp == nil || !sp.open {
			return 0, err
		}
		rolledBack, rerr := ld.resolveWindow(err)
		if !rolledBack {
			return 0, rerr
		}
	}
}

// step decides one token (see next, its driver-facing wrapper).
func (ld *laneDecoder) step(logits []float32) (int, error) {
	if ld.finished {
		return 0, fmt.Errorf("core: laneDecoder.next after finish")
	}
	if len(ld.pending) > 0 {
		tok := ld.pending[0]
		ld.pending = ld.pending[1:]
		ld.sampled = false
		return tok, nil
	}
	e := ld.e
	// Every call past the prompt samples, so each one is a speculative
	// position: checkpoint it (opening a window if none is open) — unless a
	// rollback just landed here, in which case this position re-decides on
	// the exact path.
	if sp := ld.spec; sp != nil {
		if sp.exactNext {
			sp.exactNext = false
		} else if sp.warm > 0 {
			sp.warm--
		} else if sp.cool > 0 {
			sp.cool--
		} else {
			ld.specCheckpoint(logits)
		}
	}
	if !ld.inSlot {
		if err := ld.beginSlot(); err != nil {
			return 0, err
		}
	}
	// One context check per emitted token — before this round of solver
	// probes — so a cancelled request stops burning solver work mid-decode.
	if err := ld.ctx.Err(); err != nil {
		return 0, err
	}
	slot := e.cfg.Slots[ld.slot]
	if e.cfg.FaultHook != nil {
		if err := e.cfg.FaultHook(FaultSite{
			Known: ld.known, Field: slot.Field, Index: slot.Index,
			Tokens: ld.res.Stats.Tokens,
		}); err != nil {
			return 0, err
		}
	}
	digits, canEnd := ld.sys.Admissible(ld.state)
	if ld.oracle != nil {
		if err := ld.oracle.budgetErr(); err != nil {
			return 0, lookaheadGaveUp(slot, err)
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
		return 0, fmt.Errorf("core: dead end at %s[%d] prefix %s (invariant breach)", slot.Field, slot.Index, ld.state)
	}
	sDigits, sEnd := ld.structural.Admissible(ld.state)
	nStruct := 0
	for d := 0; d <= 9; d++ {
		if sDigits[d] {
			nStruct++
		}
	}
	if sEnd {
		nStruct++
	}
	if len(ld.allowed) < nStruct {
		ld.res.Stats.MaskedSteps++
		if len(ld.allowed) == 1 {
			ld.res.Stats.ForcedSteps++
		}
	}
	tok := e.sampleMasked(logits, ld.allowed, ld.draw)
	if e.cfg.TraceHook != nil {
		e.cfg.TraceHook(TraceStep{
			Field: slot.Field, Index: slot.Index, Prefix: ld.state.String(),
			Admissible: append([]int(nil), ld.allowed...),
			Structural: nStruct, Chosen: tok,
		})
	}
	ld.sampled = true
	return tok, nil
}

// beginSlot builds the transition system for the slot about to decode:
// solver-backed lookahead in LeJIT mode, grammar/domain masking otherwise,
// plus the purely structural mirror used for Masked/Forced accounting.
func (ld *laneDecoder) beginSlot() error {
	e := ld.e
	slot := e.cfg.Slots[ld.slot]
	ld.oracle = nil
	if e.cfg.Mode == StructureOnly || e.cfg.Rules == nil {
		ld.sys = e.domainSys[slot.Field]
	} else {
		// The slot oracle answers probes from per-slot interval state
		// (oracle.go) and falls back to solver probes; batching lets it
		// drain a candidate's whole completion union locally before any
		// solver work.
		ld.oracle = e.newSlotOracle(e.slotVar(slot), &ld.res.Stats)
		ld.oracle.spec = ld.spec
		if ld.mergeO != nil {
			// A rollback stashed the violated run's validation replica: its
			// witnesses and envelope tightenings were proven at exactly this
			// variable and assertion stack, so the re-decide starts with
			// everything suffix validation already paid for — including the
			// refutation that forced the rollback, when the envelope can
			// express it.
			if ld.mergeO.v == ld.oracle.v && e.solver.AssertionMark() == ld.mergeMark {
				mergeOracle(ld.oracle, ld.mergeO)
			}
			ld.mergeO = nil
		}
		ld.sys = transition.NewBatch(e.maxDigits[slot.Field], ld.oracle.Feasible, ld.oracle.FeasibleAny)
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
	// structural mirrors the grammar/width automaton with a trivially-true
	// oracle, so Masked/Forced stats count only rule-driven pruning, not
	// structural necessities like the separator after a max-width value.
	ld.structural = e.domainSys[slot.Field]
	ld.sepID = e.cfg.Tok.ID(slot.Sep)
	ld.state = ld.sys.Start()
	ld.inSlot = true
	return nil
}

// advance records that the LM consumed tok (the value next returned). It
// performs the post-append bookkeeping: token accounting, value completion
// on a separator (dynamic partial instantiation: the finished value is
// asserted so the solver's view of active rules advances with generation),
// prefix-cache snapshot capture at slot boundaries, and record assembly
// after the last slot.
func (ld *laneDecoder) advance(tok int) error {
	e := ld.e
	ld.key = append(ld.key, tok)
	// A slot boundary is the separator that completes slot keySlots —
	// whether it arrived as prompt text or was just sampled. (A separator
	// token can never be confused with a digit, so the comparison is exact.)
	boundary := false
	if ld.keySlots < len(e.cfg.Slots) && tok == e.cfg.Tok.ID(e.cfg.Slots[ld.keySlots].Sep) {
		ld.keySlots++
		boundary = true
	}
	if ld.sampled {
		ld.res.Stats.Tokens++
		if tok == ld.sepID {
			v := ld.state.Value()
			ld.vals = append(ld.vals, v)
			slot := e.cfg.Slots[ld.slot]
			f := smt.Eq(smt.V(e.slotVar(slot)), smt.C(v))
			wasValid := e.lastModel != nil && e.lastModelEpoch == e.solver.Epoch()
			e.solver.Assert(f)
			if sp := ld.spec; sp != nil && sp.open {
				// Journaled so suffix validation can rebuild any probe-time
				// stack; the assert itself lands as usual, above the
				// window's base mark.
				sp.asserts = append(sp.asserts, f)
			}
			// Carry the witness model across the assert when possible: if it
			// already assigned the pinned value it remains a model of the
			// extended stack as-is; otherwise try patching it to the value
			// (shifting the residual of at most one coupling conjunct, see
			// patchValue). Keeping the model alive here is what keeps the
			// patch fast path productive for the following slots — during an
			// open speculation window there are no solver probes to refresh
			// it, so this repair is the only witness source until the settle.
			if wasValid && (e.lastModel[e.slotVar(slot)] == v || e.patchValue(e.slotVar(slot), v)) {
				e.lastModelEpoch = e.solver.Epoch()
			}
			ld.inSlot = false
			ld.slot++
		} else {
			st, err := ld.sys.Step(ld.state, e.cfg.Tok.Char(tok))
			if err != nil {
				return fmt.Errorf("core: stepping transition system: %w", err)
			}
			// Digits fall through: boundary is false for them and completion
			// is false while inSlot, so only the window-full check below can
			// act — exactly what a full window mid-value needs.
			ld.state = st
		}
	}
	if boundary {
		// After the assert above, so a captured witness covers the pinned
		// value and a restored one re-arms the next slot's oracle.
		ld.maybeCapture()
	}
	if sp := ld.spec; sp != nil && sp.open && ld.sampled {
		if ld.complete() || len(sp.cps) >= sp.curK {
			// Window full or record complete: settle it. On rollback the
			// restored state fails the completion re-check below and the
			// driver's next call retries the rolled-back position (its
			// logits buffer was restored in place).
			if _, err := ld.resolveWindow(nil); err != nil {
				return err
			}
		}
	}
	if ld.complete() {
		ld.res.Rec = e.assemble(ld.known, ld.fromSlot, ld.vals)
		ld.finish()
	}
	// Stream newly completed slots, but never from inside an open lookahead
	// window: a rollback may still erase them. resolveWindow above has
	// already settled full/complete windows, so commits flush here too.
	if ld.emit != nil && (ld.spec == nil || !ld.spec.open) {
		ld.flushEmit()
	}
	return nil
}

// flushEmit renders every completed-but-unstreamed slot of key to the emit
// hook. Must only be called outside an open speculation window (advance
// guards this), which is what makes streamed chunks irrevocable: the first
// checkpoint of any later window sits at or past emitTok, so no rollback
// truncates below it.
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

// maxGenCaptures bounds how many sampled-region boundaries one lane may
// snapshot. Prompt-region boundaries (where clustering lives) are not
// counted against it; sampled-region snapshots mostly pay off when a later
// request's longer prompt extends into this record's generated values, so a
// couple per record buys that without cloning at every separator.
const maxGenCaptures = 2

// maybeCapture freezes the lane's paired (LM, solver) state at the current
// slot boundary and inserts it into the prefix cache, unless the boundary
// is already cached, capture is impossible, or the record is complete (a
// full-record key can never be another request's proper prefix).
func (ld *laneDecoder) maybeCapture() {
	e := ld.e
	if !ld.useCache || ld.capture == nil || ld.keySlots >= len(e.cfg.Slots) {
		return
	}
	gen := ld.keySlots > ld.fromSlot
	if gen && ld.genCaps >= maxGenCaptures {
		return
	}
	cache := e.cfg.PrefixCache
	if !cache.NeedsInsert(ld.key, e.fingerprint) {
		return
	}
	sess := ld.capture()
	if sess == nil {
		return
	}
	// Pair the KV snapshot with the solver's witness when one is current for
	// this epoch; the witness may assign more than the key pins (later knowns
	// are already asserted), which only makes it a stronger model of the
	// key's assertion set. A nil model still warm-starts the transformer.
	var model []int64
	if e.lastModel != nil && e.lastModelEpoch == e.solver.Epoch() {
		model = append(model, e.lastModel...)
	}
	key := append([]int(nil), ld.key...)
	snap := &prefixcache.Snapshot{
		Sess: sess, Model: model, RuleEpoch: e.fingerprint, Slots: ld.keySlots,
	}
	if sp := ld.spec; sp != nil && sp.open {
		// Mid-window boundaries stage their snapshots instead of publishing
		// them: other requests must never warm-start from a prefix that has
		// not validated. genCaps advances now so the cap applies within the
		// window; a rollback restores it from the checkpoint.
		sp.caps = append(sp.caps, specCapture{key: key, snap: snap, gen: gen})
		if gen {
			ld.genCaps++
		}
		return
	}
	if cache.Insert(key, snap) {
		ld.res.Stats.PrefixCaptures++
		if gen {
			ld.genCaps++
		}
	}
}
