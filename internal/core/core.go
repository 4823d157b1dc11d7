// Package core implements the paper's contribution: Just-in-Time Logic
// Enforcement (LeJIT). The engine interleaves the SMT solver into the
// language model's token-by-token inference: before each character is
// emitted, the solver computes — from the rules and everything generated so
// far, with lookahead over the not-yet-generated suffix — which next
// characters keep a rule-compliant completion reachable, masks the rest out
// of the model's logits, renormalizes, and samples (paper §3, Fig 1b/2).
//
// The package also implements the evaluated baselines: free sampling
// (MethodFree, the paper's Vanilla GPT-2), rejection (resample until
// compliant), post-hoc L1-minimal SMT repair of the free sample (the
// Zoom2Net-CEM strategy), and a
// StructureOnly mode (grammar/width masking without the solver — the
// constrained-decoding strawman of §2.2). Every method decodes a record as a
// lane of the same lock-step loop (lockstep.go); Method selects which.
package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/prefixcache"
	"repro/internal/rules"
	"repro/internal/smt"
	"repro/internal/transition"
	"repro/internal/vocab"
)

// Session is an incremental decoding session over a language model.
type Session interface {
	// Append feeds one token; afterwards Logits reflects the next position.
	Append(tok int) error
	// Logits returns the next-token logits. The engine reads but does not
	// retain the returned slice; it may be reused by the next Append.
	Logits() []float32
}

// LM abstracts the language model so the engine stays model-agnostic
// ("LeJIT is LLM-agnostic", §4).
type LM interface {
	VocabSize() int
	NewSession() Session
}

// BatchSession is the lock-step analogue of Session: one forward pass
// advances many independent decoding lanes at once, so the LM's weights are
// streamed from memory once per token step instead of once per record.
// Lanes are ragged — any subset may be advanced per call, each at its own
// position.
type BatchSession interface {
	// AppendBatch feeds toks[i] to lanes[i] for every i. Implementations
	// must validate all lanes before mutating any state; a per-lane failure
	// (e.g. context-length overflow) is reported via an error that unwraps
	// to *nn.LaneError, leaving the batch untouched so the caller can retire
	// the lane and retry the rest.
	AppendBatch(lanes, toks []int) error
	// Consume feeds toks[i] to lanes[i] like AppendBatch, refusing exactly
	// what it refuses, but need not compute the lanes' next logits: the
	// driver calls it for a token that closes its lane's record, whose
	// logits are never read. A consumed lane is stepped again only after
	// ResetLane.
	Consume(lanes, toks []int) error
	// Finish computes the next-token logits of lanes, which the step is
	// about to read, in one pass. Logits must return them whether or not
	// Finish ran, so an implementation that computes logits in AppendBatch
	// does nothing here; nn defers a row's last-layer tail to it, so that a
	// row nobody reads never computes it.
	Finish(lanes []int)
	// Logits returns lane's next-token logits after its last step; the
	// engine reads but does not retain the returned slice.
	Logits(lane int) []float32
	// ResetLane empties lane, leaving the others as they are; its next
	// AppendBatch starts it again from the first position. A free-sampling
	// lane restarts from its prompt through it.
	ResetLane(lane int)
}

// BatchLM is an LM whose sessions can be stepped in lock-step. When the
// engine's LM implements it, the decode loop (lockstep.go) advances all of a
// group's lanes with one batched forward pass per token step; otherwise it
// loops Append over one Session per lane.
type BatchLM interface {
	LM
	NewBatchSession(n int) BatchSession
}

// nnLM adapts *nn.Model to the LM and BatchLM interfaces.
type nnLM struct{ m *nn.Model }

func (a nnLM) VocabSize() int                     { return a.m.Cfg.Vocab }
func (a nnLM) NewSession() Session                { return a.m.NewSession() }
func (a nnLM) NewBatchSession(n int) BatchSession { return a.m.NewBatchSession(n) }

// WrapNN adapts a trained transformer to the engine's LM interface.
func WrapNN(m *nn.Model) LM { return nnLM{m: m} }

// Slot is one value position in the output grammar: a field element followed
// by a separator character.
type Slot struct {
	Field string
	Index int
	Sep   byte
}

// TelemetryGrammar builds the record grammar used by the telemetry text
// format: scalar fields in coarseOrder separated by ',', a '|' before the
// fine-grained vector, ',' within it, and a final '\n'.
func TelemetryGrammar(schema *rules.Schema, coarseOrder []string, fineField string) ([]Slot, error) {
	var slots []Slot
	for i, name := range coarseOrder {
		f, ok := schema.Field(name)
		if !ok {
			return nil, fmt.Errorf("core: grammar field %q not in schema", name)
		}
		if f.Kind != rules.Scalar {
			return nil, fmt.Errorf("core: grammar field %q is not scalar", name)
		}
		sep := byte(',')
		if i == len(coarseOrder)-1 {
			sep = '|'
		}
		slots = append(slots, Slot{Field: name, Index: 0, Sep: sep})
	}
	f, ok := schema.Field(fineField)
	if !ok {
		return nil, fmt.Errorf("core: fine field %q not in schema", fineField)
	}
	if f.Kind != rules.Vector {
		return nil, fmt.Errorf("core: fine field %q is not a vector", fineField)
	}
	for i := 0; i < f.Len; i++ {
		sep := byte(',')
		if i == f.Len-1 {
			sep = '\n'
		}
		slots = append(slots, Slot{Field: fineField, Index: i, Sep: sep})
	}
	return slots, nil
}

// Mode selects the enforcement strategy of the guided decoder.
type Mode int

const (
	// LeJIT enforces the full rule set with SMT lookahead (the paper's
	// contribution).
	LeJIT Mode = iota
	// StructureOnly masks only by grammar and field domains — equivalent
	// to grammar-constrained decoding, which cannot track arithmetic
	// constraints (§2.2 "Enforcing rules during decoding").
	StructureOnly
)

// Config assembles an Engine.
type Config struct {
	LM     LM
	Tok    *vocab.Tokenizer
	Schema *rules.Schema
	// PackName identifies the domain pack this engine decodes for (empty for
	// engines built outside the pack registry). It participates in the
	// rule-epoch fingerprint, so two packs whose rule environments happen to
	// coincide still never cross-serve cached snapshots.
	PackName string
	// Rules guide LeJIT decoding and define "violation" for all decoders.
	// May be nil (then guided decoding enforces field domains only).
	Rules *rules.RuleSet
	Slots []Slot
	Mode  Mode

	Temperature float64 // softmax temperature (0 → 1.0)
	MaxNodes    uint64  // solver search budget per Check (0 → solver default)
	// SolverTimeout is the wall-clock budget per solver Check (0 → none).
	// A Check that exceeds it returns Unknown and the lane fails with an
	// error unwrapping to ErrBudget, so one pathological rule set cannot
	// stall the whole batch.
	SolverTimeout time.Duration
	MaxAttempts   int // rejection-sampling attempt cap (0 → 500)
	// TraceHook, when set, receives one TraceStep per guided decoding
	// step — the observability channel for debugging rule interactions
	// and for demonstrating minimal invasiveness. Not invoked by the
	// free-sampling baselines.
	TraceHook func(TraceStep)
	// FaultHook, when set, is called once per guided decoding step just
	// before the solver probes, mirroring TraceHook. Within one lane a
	// step's FaultHook call precedes its TraceHook call; across the lanes
	// of a batch the calls interleave (every lane's mask, then every
	// lane's sample), so Known tells the lanes apart. Test-only fault
	// injection: a returned error fails the lane with it (wrap ErrBudget to
	// simulate a solver stall), a panic exercises the recover barrier, and
	// a sleep makes the lane slow. Never set in production configs.
	FaultHook func(FaultSite) error
	// PrefixCache, when set, lets guided decodes start warm from (and
	// capture into) a cross-request cache of whole prompts pairing
	// transformer KV snapshots with solver witness state (DESIGN.md §11).
	// A decode with a non-empty prompt short of the whole record captures
	// once, at the end of its prompt, and a repeat of that prompt starts
	// after it. Only engines
	// whose LM is a WrapNN transformer participate; warm output stays
	// bit-identical to cold. Share one cache across every clone of one
	// engine family (SetPrefixCache does this); snapshots from a different
	// rule environment are fenced off by the rule-epoch fingerprint.
	PrefixCache *prefixcache.Cache
}

// Stats reports what one decode did.
type Stats struct {
	Tokens       int    // tokens emitted (excluding the prompt)
	MaskedSteps  int    // steps where ≥1 candidate token was pruned
	ForcedSteps  int    // steps with exactly one admissible token (paper Fig 1b step ⑤)
	SolverChecks uint64 // SMT Check calls attributable to this decode
	Attempts     int    // sampling attempts (rejection baseline)
	Malformed    int    // free-sampling outputs that failed to parse
	Repaired     bool   // post-hoc repair modified the output
	// OracleQueries counts range-feasibility probes issued by the guided
	// decoder.
	OracleQueries uint64
	// OracleFastPath counts probes answered locally from the slot's
	// interval state (no solver call); OracleProbes counts probes that
	// reached the solver — the two partition OracleQueries. (An epoch-keyed
	// probe cache once sat between them; it was removed after
	// artifacts/history/BENCH_2.json measured a 0.17% hit rate, see
	// DESIGN.md §6.)
	OracleFastPath uint64
	OracleProbes   uint64
	// LogProb is the renormalized log-probability of the returned token
	// sequence (filled by BeamImpute; 0 for samplers).
	LogProb float64
	// PrefixHitTokens is how many leading tokens (BOS plus the whole
	// prompt) this decode restored from the cross-request prefix cache
	// instead of running through the transformer; 0 means a cold decode.
	// PrefixCaptures counts snapshots this decode inserted into the cache
	// (0 or 1).
	PrefixHitTokens int
	PrefixCaptures  int
	// SpecAcceptedTokens is always 0. Speculative decoding was removed
	// (DESIGN.md §13); the field stays only for the repository benchmark's
	// core.spec_accept_share probe, like WithLookahead.
	SpecAcceptedTokens int
}

// Result is one decoded record plus its statistics.
type Result struct {
	Rec   rules.Record
	Stats Stats
}

// TraceStep describes one guided decoding step (see Config.TraceHook).
type TraceStep struct {
	Field  string // field being generated
	Index  int    // element index within the field
	Prefix string // digit prefix accumulated before this step
	// Admissible are the token ids the rules allow at this step;
	// Structural counts what the grammar/width alone would allow.
	Admissible []int
	Structural int
	Chosen     int          // the sampled token id
	Known      rules.Record // the lane's known prefix, as FaultSite.Known
}

// ErrInfeasible is returned when the rules conjoined with the prompt's known
// values admit no compliant completion (possible when a test record itself
// violates a mined rule).
type ErrInfeasible struct{ Detail string }

func (e ErrInfeasible) Error() string {
	return "core: no rule-compliant completion exists: " + e.Detail
}

// Engine decodes records from a language model. It is a program — the rule
// set compiled once per NewEngine, shared read-only — plus one solver and the
// per-record state a decode mutates; per-record state is pushed and popped,
// so an Engine is not safe for concurrent use — Clone one per goroutine.
type Engine struct {
	*program
	// solver holds the compiled rules: the root engine's asserts them, a
	// clone's is a Fork of its parent's, sharing the compiled formula and
	// the rules-only base store.
	solver *smt.Solver
	// lastModel is the most recent model the solver produced, indexed by
	// smt.Var and valid while the epoch matches lastModelEpoch; it seeds each
	// slot oracle's witness so a slot's first probe (HasPath) usually costs
	// no solver check.
	lastModel      []int64
	lastModelEpoch uint64
	// moves is patchValue's repair log (oracle.go): the variables the
	// current patch moved, in order, and their old values, so a failed
	// repair rolls back without allocating.
	moves  [1 + maxRepairMoves]patchMove
	nMoves int
	// repairState is lastModel's clause state over the program's clauses:
	// kept current by patchValue, invalidated by noteModel.
	repairState clauseState
	// poolMu guards pool, a free list of idle clones DecodeRequests draws its
	// per-record engines from (lockstep.go), so they are cloned once and then
	// recycled across batches. Only the root engine of a clone family pools.
	poolMu sync.Mutex
	pool   []*Engine
	// sessions is a free list of batch sessions, guarded by poolMu, that
	// decodeLockStep draws from so a lane group does not allocate (and
	// zero) a fresh KV arena per batch (lockstep.go).
	sessions []reusableBatchSession

	// Per-lane scratch. An engine decodes one lane at a time, so a pooled
	// clone carries its lane's sampling buffers (sampleMasked), the RNG a
	// batch request is drawn from (seeded per request, see seededRNG), the
	// oracle's range buffer (FeasibleAny) and the witness list of its
	// tainted slots (one slot oracle is live at a time) from record to record.
	rng       *rand.Rand
	candBuf   []cand
	weightBuf []float64
	rangeBuf  [][2]int64
	wvalBuf   []int64
}

// program is what NewEngine compiles from a Config, once per engine family:
// every clone shares it, and nothing writes to it after NewEngine returns.
// The Set* methods swap an engine's pointer for a modified copy instead.
type program struct {
	cfg Config
	// binding maps fields to solver variables. A clone's solver forks the
	// root's, so it declares the same Var ids.
	binding *rules.Binding
	// digitTok[d] is the token id of digit d.
	digitTok  [10]int
	maxDigits map[string]int // per field, from the domain's upper bound
	// recordChars is the most tokens a record can render: each slot's
	// widest value plus its separator.
	recordChars int
	// rulesModel is the model of the root engine's construction-time
	// rules-only Check, indexed by smt.Var: a lane whose prompt pins nothing
	// copies it as its first witness instead of re-running that Check
	// (newLaneDecoder). Nil when the engine enforces no rules.
	rulesModel []int64
	// clauses is the rule formula flattened for model repair (oracle.go).
	clauses *clauseIndex
	// fingerprint is the rule-epoch fingerprint stamped on prefix-cache
	// snapshots: a hash of everything that decides whether a cached
	// (KV state, witness model) pair is still valid — the rule set, schema,
	// grammar, decode mode, pack identity, and the LM's identity. It doubles
	// as the pack epoch (internal/pack): a hot reload builds a new engine
	// whose fingerprint differs exactly when the rule environment changed, so
	// snapshots from a stale pack are dropped on sight. A cache shared across
	// engine families with different fingerprints simply never cross-serves.
	// The Set* methods write only Config fields it does not read.
	fingerprint uint64
}

// NewEngine validates the configuration, compiles the rules, and returns a
// ready engine. It is the only place rules are compiled: clones share its
// program and fork its solver.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.LM == nil || cfg.Tok == nil || cfg.Schema == nil {
		return nil, fmt.Errorf("core: LM, Tok, and Schema are required")
	}
	if len(cfg.Slots) == 0 {
		return nil, fmt.Errorf("core: empty grammar")
	}
	if cfg.Temperature == 0 {
		cfg.Temperature = 1
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 500
	}
	if cfg.LM.VocabSize() != cfg.Tok.Size() {
		return nil, fmt.Errorf("core: LM vocab %d != tokenizer %d", cfg.LM.VocabSize(), cfg.Tok.Size())
	}

	p := &program{cfg: cfg, maxDigits: map[string]int{}}
	p.digitTok = cfg.Tok.DigitIDs()
	for d, id := range p.digitTok {
		if id == -1 {
			return nil, fmt.Errorf("core: tokenizer lacks digit %d", d)
		}
	}
	seen := map[string]map[int]bool{}
	for _, s := range cfg.Slots {
		f, ok := cfg.Schema.Field(s.Field)
		if !ok {
			return nil, fmt.Errorf("core: slot field %q not in schema", s.Field)
		}
		if s.Index < 0 || s.Index >= f.Len {
			return nil, fmt.Errorf("core: slot %s[%d] out of range", s.Field, s.Index)
		}
		if f.Lo < 0 {
			return nil, fmt.Errorf("core: field %q has negative domain; the digit grammar covers non-negative values only", s.Field)
		}
		if cfg.Tok.ID(s.Sep) == -1 {
			return nil, fmt.Errorf("core: separator %q not in tokenizer", string(s.Sep))
		}
		if seen[s.Field] == nil {
			seen[s.Field] = map[int]bool{}
		}
		if seen[s.Field][s.Index] {
			return nil, fmt.Errorf("core: slot %s[%d] appears twice", s.Field, s.Index)
		}
		seen[s.Field][s.Index] = true
		p.maxDigits[s.Field] = len(strconv.FormatInt(f.Hi, 10))
		p.recordChars += p.maxDigits[s.Field] + 1
	}

	solver := smt.NewSolver()
	if cfg.MaxNodes > 0 {
		solver.MaxNodes = cfg.MaxNodes
	}
	solver.Timeout = cfg.SolverTimeout
	p.binding = rules.Instantiate(solver, cfg.Schema)
	var ruleFormula smt.Formula
	if cfg.Rules != nil && cfg.Mode == LeJIT {
		f, err := cfg.Rules.CompileAll(p.binding)
		if err != nil {
			return nil, fmt.Errorf("core: compiling rules: %w", err)
		}
		ruleFormula = f
		solver.Assert(f)
		// The pre-check also builds the rules-only base store that every
		// clone's forked solver shares.
		r := solver.Check()
		if r.Status == smt.Unknown && r.Err != nil {
			return nil, fmt.Errorf("core: rules-only pre-check: %w", r.Err)
		}
		if r.Status != smt.Sat {
			return nil, fmt.Errorf("core: rule set is unsatisfiable on its own (%v)", r.Status)
		}
		p.rulesModel = make([]int64, len(r.Model))
		for v, x := range r.Model {
			p.rulesModel[v] = x
		}
	}
	p.clauses = newClauseIndex(ruleFormula, solver.NumVars())
	p.fingerprint = ruleFingerprint(cfg)
	return &Engine{program: p, solver: solver}, nil
}

// ruleFingerprint hashes the rule environment a prefix-cache snapshot is
// valid under. Two engines agree on a fingerprint exactly when a snapshot
// captured by one is sound for the other: same compiled rules (RuleSet.String
// is the parseable DSL rendering), same schema domains, same grammar (the
// token⇄slot-value mapping), same enforcement mode, and the same transformer
// weights (by model identity — the cache is in-process, and cached sessions
// keep their model reachable, so the pointer cannot be recycled under a live
// entry). Sampling knobs (temperature, seeds) are deliberately
// excluded: they shape what is sampled after the snapshot, not the validity
// of the state restored from it.
func ruleFingerprint(cfg Config) uint64 {
	h := fnv.New64a()
	if lm, ok := cfg.LM.(nnLM); ok {
		fmt.Fprintf(h, "model=%p;", lm.m)
	}
	fmt.Fprintf(h, "pack=%s;vocab=%d;mode=%d;", cfg.PackName, cfg.Tok.Size(), cfg.Mode)
	for _, f := range cfg.Schema.Fields() {
		fmt.Fprintf(h, "f=%s:%d:%d:%d:%d;", f.Name, f.Kind, f.Lo, f.Hi, f.Len)
	}
	for _, s := range cfg.Slots {
		fmt.Fprintf(h, "s=%s[%d]%c;", s.Field, s.Index, s.Sep)
	}
	if cfg.Rules != nil {
		io.WriteString(h, cfg.Rules.String())
	}
	return h.Sum64()
}

// SetPrefixCache installs (or, with nil, removes) the cross-request prefix
// cache on the engine after construction. The engine swaps its program for a
// copy that carries the cache, so the lanes it hands out afterwards (pooled
// clones included, see acquireClone) and its future Clones decode with it;
// other engines of the family keep theirs. Call before decoding begins.
func (e *Engine) SetPrefixCache(cache *prefixcache.Cache) {
	p := *e.program
	p.cfg.PrefixCache = cache
	e.program = &p
}

// SetSolverBudget installs a per-Check solver budget (node limit and
// wall-clock deadline; a zero leaves that dimension unlimited) on the engine
// after construction, covering engines built by helpers that take no Config
// (the experiments harness, -demo). It sets the engine's own solver and, like
// SetPrefixCache, a copy of its program, so the lanes it hands out
// afterwards and its future Clones get the budget too; other engines of the
// family keep theirs. Call before decoding begins.
func (e *Engine) SetSolverBudget(maxNodes uint64, timeout time.Duration) {
	p := *e.program
	if maxNodes > 0 {
		p.cfg.MaxNodes = maxNodes
		e.solver.MaxNodes = maxNodes
	}
	p.cfg.SolverTimeout = timeout
	e.solver.Timeout = timeout
	e.program = &p
}

// Clone returns an independent engine over the same program (for parallel
// decoding): it compiles nothing and runs no solver check. Its solver is a
// Fork of e's — the same variables, the compiled rules and their rules-only
// base store shared read-only, e's budget — and everything a decode mutates
// is its own. e must be idle (no decode in flight on it). The error is
// always nil; the signature stays for the repository benchmark.
func (e *Engine) Clone() (*Engine, error) { return e.clone(), nil }

func (e *Engine) clone() *Engine { return &Engine{program: e.program, solver: e.solver.Fork()} }

// Fingerprint returns the engine's rule-epoch fingerprint. Two engines share
// a fingerprint iff their pack name, model identity, vocabulary, schema,
// grammar, and rule text all coincide; the pack registry exposes it as the
// pack epoch and the prefix cache uses it to drop stale snapshots on sight.
func (e *Engine) Fingerprint() uint64 { return e.fingerprint }

// Configuration returns a copy of the engine's config so a caller (e.g. the
// pack registry's hot reload) can rebuild an equivalent engine with a swapped
// rule set. Slices and pointers inside the copy are shared read-only.
func (e *Engine) Configuration() Config { return e.cfg }

// Slots returns the output grammar.
func (e *Engine) Slots() []Slot { return e.cfg.Slots }

// SolverStats exposes the cumulative SMT statistics, aggregated over the
// engine's own solver and the idle clones in its lock-step pool (lane
// decodes run on pooled clones, so a family-wide view is what per-token
// accounting needs). Clones checked out mid-decode are not counted; read
// when the engine is quiescent.
func (e *Engine) SolverStats() smt.Stats {
	st := e.solver.Stats()
	e.poolMu.Lock()
	for _, c := range e.pool {
		cs := c.solver.Stats()
		st.Checks += cs.Checks
		st.Nodes += cs.Nodes
		st.Propagations += cs.Propagations
		st.Conflicts += cs.Conflicts
		st.BaseBuilds += cs.BaseBuilds
		st.WarmStarts += cs.WarmStarts
		st.BudgetStops += cs.BudgetStops
	}
	e.poolMu.Unlock()
	return st
}

// domainSystem builds the grammar/width automaton over field's declared
// domain: a slot's structural mirror, and its whole mask in StructureOnly
// mode. A System keeps scratch, so every slot builds its own.
func (e *Engine) domainSystem(field string) *transition.System {
	f, _ := e.cfg.Schema.Field(field)
	return transition.New(e.maxDigits[field], func(lo, hi int64) bool { return lo <= f.Hi && f.Lo <= hi })
}

// knownEqs renders known values as equalities over b's variables, one per
// element. A field b does not bind, or one with more values than elements,
// is an error.
func knownEqs(b *rules.Binding, known rules.Record) ([]smt.Formula, error) {
	var fs []smt.Formula
	for f, vs := range known {
		bv, ok := b.Vars(f)
		if !ok {
			return nil, fmt.Errorf("core: known field %q not in schema", f)
		}
		if len(vs) > len(bv) {
			return nil, fmt.Errorf("core: known field %q has too many values (%d, the schema has %d)", f, len(vs), len(bv))
		}
		for i, v := range vs {
			fs = append(fs, smt.Eq(smt.V(bv[i]), smt.C(v)))
		}
	}
	return fs, nil
}

// slotVar resolves the solver variable of a slot.
func (e *Engine) slotVar(s Slot) smt.Var {
	vs, _ := e.binding.Vars(s.Field)
	return vs[s.Index]
}

// promptFor renders the known prefix values as prompt text and returns the
// number of leading slots they cover. Known must cover a (possibly empty)
// prefix of the grammar, each covered field completely.
func (e *Engine) promptFor(known rules.Record) (string, int, error) {
	if len(known) == 0 {
		return "", 0, nil
	}
	var b []byte
	covered := 0
	for _, s := range e.cfg.Slots {
		vs, ok := known[s.Field]
		if !ok {
			break
		}
		if s.Index >= len(vs) {
			return "", 0, fmt.Errorf("core: known field %q has %d values, slot needs index %d", s.Field, len(vs), s.Index)
		}
		b = appendSlot(b, s, vs[s.Index])
		covered++
	}
	// Every known field must actually be consumed by the covered prefix.
	consumed := map[string]bool{}
	for _, s := range e.cfg.Slots[:covered] {
		consumed[s.Field] = true
	}
	for f := range known {
		if !consumed[f] {
			return "", 0, fmt.Errorf("core: known field %q is not a grammar prefix", f)
		}
	}
	return string(b), covered, nil
}

// FormatRecord renders rec through slots — per slot its value's canonical
// decimal digits, then the separator — the text the LM decodes a record as.
// A slot rec does not fill is an error. It renders every whole record; a
// guided lane streams single slots through the same appendSlot.
func FormatRecord(slots []Slot, rec rules.Record) (string, error) {
	var b []byte
	for _, s := range slots {
		vs := rec[s.Field]
		if s.Index >= len(vs) {
			return "", fmt.Errorf("record missing %s[%d]", s.Field, s.Index)
		}
		b = appendSlot(b, s, vs[s.Index])
	}
	return string(b), nil
}

// appendSlot appends slot s holding v to b: v's digits, then s's separator.
func appendSlot(b []byte, s Slot, v int64) []byte {
	return append(strconv.AppendInt(b, v, 10), s.Sep)
}

// parseBySlots parses generated text according to the grammar from the given
// slot onward, returning the per-slot values; the text must match
// digits+separator per slot exactly.
func (e *Engine) parseBySlots(text string, fromSlot int) ([]int64, error) {
	vals := make([]int64, 0, len(e.cfg.Slots)-fromSlot)
	pos := 0
	for _, s := range e.cfg.Slots[fromSlot:] {
		start := pos
		for pos < len(text) && text[pos] >= '0' && text[pos] <= '9' {
			pos++
		}
		if pos == start {
			return nil, fmt.Errorf("core: expected digits for %s[%d] at offset %d of %q", s.Field, s.Index, start, text)
		}
		v, err := strconv.ParseInt(text[start:pos], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: value of %s[%d]: %w", s.Field, s.Index, err)
		}
		if pos >= len(text) || text[pos] != s.Sep {
			return nil, fmt.Errorf("core: expected separator %q after %s[%d] in %q", string(s.Sep), s.Field, s.Index, text)
		}
		pos++
		vals = append(vals, v)
	}
	if pos != len(text) {
		return nil, fmt.Errorf("core: trailing content %q", text[pos:])
	}
	return vals, nil
}

// assemble builds the output record from known values plus generated slot
// values (aligned with Slots[fromSlot:]).
func (e *Engine) assemble(known rules.Record, fromSlot int, vals []int64) rules.Record {
	rec := rules.Record{}
	for f, vs := range known {
		rec[f] = append([]int64(nil), vs...)
	}
	for i, s := range e.cfg.Slots[fromSlot:] {
		f, _ := e.cfg.Schema.Field(s.Field)
		if rec[s.Field] == nil {
			rec[s.Field] = make([]int64, f.Len)
		}
		rec[s.Field][s.Index] = vals[i]
	}
	return rec
}

// sampleMasked samples a token among allowed ids using the engine's
// temperature, renormalizing the remaining mass so the model's
// relative preferences among admissible tokens are preserved (the
// minimal-invasiveness property, §3). It draws exactly one Float64 from rng,
// and none for a forced mask.
func (e *Engine) sampleMasked(logits []float32, allowed []int, rng *rand.Rand) int {
	if len(allowed) == 0 {
		panic("core: sampleMasked with empty candidate set")
	}
	if len(allowed) == 1 {
		return allowed[0]
	}
	cands := e.candBuf[:0]
	for _, id := range allowed {
		cands = append(cands, cand{id: id, l: float64(logits[id]) / e.cfg.Temperature})
	}
	e.candBuf = cands
	maxL := cands[0].l
	for _, c := range cands[1:] {
		if c.l > maxL {
			maxL = c.l
		}
	}
	var sum float64
	ps := e.weightBuf[:0]
	for _, c := range cands {
		ps = append(ps, math.Exp(c.l-maxL))
		sum += ps[len(ps)-1]
	}
	e.weightBuf = ps
	r := rng.Float64() * sum
	for i, p := range ps {
		r -= p
		if r <= 0 {
			return cands[i].id
		}
	}
	return cands[len(cands)-1].id
}

// cand is one admissible token and its temperature-scaled logit.
type cand struct {
	id int
	l  float64
}

// seededRNG returns the engine's RNG re-seeded with seed: the stream
// rand.New(rand.NewSource(seed)) would produce, from a laneSource the engine
// allocates once and whose Seed computes no state word (rng.go). The RNG
// belongs to the one lane the engine decodes and is re-seeded for the next.
func (e *Engine) seededRNG(seed int64) *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(new(laneSource))
	}
	e.rng.Seed(seed)
	return e.rng
}
