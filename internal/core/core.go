// Package core implements the paper's contribution: Just-in-Time Logic
// Enforcement (LeJIT). The engine interleaves the SMT solver into the
// language model's token-by-token inference: before each character is
// emitted, the solver computes — from the rules and everything generated so
// far, with lookahead over the not-yet-generated suffix — which next
// characters keep a rule-compliant completion reachable, masks the rest out
// of the model's logits, renormalizes, and samples (paper §3, Fig 1b/2).
//
// The package also implements the evaluated baselines: Vanilla (free
// sampling), Rejection (resample until compliant), PostHoc (L1-minimal SMT
// repair of the free sample — the Zoom2Net-CEM strategy), and a
// StructureOnly mode (grammar/width masking without the solver — the
// constrained-decoding strawman of §2.2).
package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
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
	// Logits returns lane's next-token logits after its last step; the
	// engine reads but does not retain the returned slice.
	Logits(lane int) []float32
	// Len reports the number of tokens lane has consumed.
	Len(lane int) int
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
	TopK        int     // restrict sampling to the K most likely admissible tokens (0 → all)
	MaxNodes    uint64  // solver search budget per Check (0 → solver default)
	// SolverTimeout is the wall-clock budget per solver Check (0 → none).
	// A Check that exceeds it returns Unknown and the lane fails with an
	// error unwrapping to ErrBudget, so one pathological rule set cannot
	// stall the whole batch.
	SolverTimeout time.Duration
	MaxAttempts   int // rejection-sampling attempt cap (0 → 500)
	MaxRetries    int // vanilla parse-retry cap (0 → 8)
	// NoIntervalFastPath disables the per-slot interval fast path
	// (DESIGN.md §6), forcing every range probe through the solver as the
	// seed implementation did. Ablation knob; decoded output is identical
	// either way.
	NoIntervalFastPath bool
	// ValidateFastPath cross-checks every fast-path answer against a real
	// solver probe, counting disagreements in Stats.FastPathMismatches.
	// Debugging/verification mode: it defeats the fast path's purpose and
	// inflates SolverChecks. With Lookahead set it also cross-checks the
	// speculative suffix validation: every deferred probe is re-checked
	// exactly even when the batched model already certified it, and any
	// disagreement lands in FastPathMismatches too.
	ValidateFastPath bool
	// Lookahead enables speculative constrained decoding (DESIGN.md §13):
	// decode up to Lookahead sampled tokens per window on the interval fast
	// path and grammar masks alone — feasibility probes neither can decide
	// are journaled and assumed true — then settle the whole window against
	// the solver at once, rolling back to the first optimistically-admitted
	// position when validation refutes one. 0 disables speculation: the
	// exact token-at-a-time oracle path, unchanged. Output is bit-identical
	// either way; only LeJIT-mode lanes on rewindable (nn-backed) LMs
	// speculate. Per-request override: BatchRequest.Lookahead.
	Lookahead int
	// TraceHook, when set, receives one TraceStep per guided decoding
	// step — the observability channel for debugging rule interactions
	// and for demonstrating minimal invasiveness. Not invoked by the
	// Vanilla/Rejection/PostHoc baselines.
	TraceHook func(TraceStep)
	// FaultHook, when set, is called once per guided decoding step just
	// before the solver probes, mirroring TraceHook. Test-only fault
	// injection: a returned error fails the lane with it (wrap ErrBudget to
	// simulate a solver stall), a panic exercises the recover barrier, and
	// a sleep makes the lane slow. Never set in production configs.
	FaultHook func(FaultSite) error
	// PrefixCache, when set, lets guided decodes start warm from (and
	// capture into) a cross-request radix prefix cache pairing transformer
	// KV snapshots with solver witness state (DESIGN.md §11). Only engines
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
	// DESIGN.md §6.) FastPathMismatches counts ValidateFastPath
	// disagreements — nonzero means a soundness bug.
	OracleFastPath     uint64
	OracleProbes       uint64
	FastPathMismatches uint64
	// LogProb is the renormalized log-probability of the returned token
	// sequence (filled by BeamImpute; 0 for samplers).
	LogProb float64
	// PrefixHitTokens is how many leading tokens (BOS included) this decode
	// restored from the cross-request prefix cache instead of running
	// through the transformer; 0 means a cold decode. PrefixCaptures counts
	// snapshots this decode inserted into the cache.
	PrefixHitTokens int
	PrefixCaptures  int
	// SpecAcceptedTokens counts sampled tokens decoded inside a speculation
	// window (Config.Lookahead) that survived suffix validation;
	// SpecRollbacks counts windows that failed it and re-decoded from the
	// first refuted position. Both zero when speculation is off. Note that
	// speculation shifts work between the Oracle* mechanism counters (a
	// deferred probe is neither fast path nor solver probe at ask time) —
	// only the output and the mask-derived counters (Tokens, MaskedSteps,
	// ForcedSteps) are invariant across Lookahead settings.
	SpecAcceptedTokens int
	SpecRollbacks      int
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
	Chosen     int // the sampled token id
}

// ErrInfeasible is returned when the rules conjoined with the prompt's known
// values admit no compliant completion (possible when a test record itself
// violates a mined rule).
type ErrInfeasible struct{ Detail string }

func (e ErrInfeasible) Error() string {
	return "core: no rule-compliant completion exists: " + e.Detail
}

// Engine decodes records from a language model. It owns a solver with the
// rule set compiled once; per-record state is pushed and popped, so an
// Engine is not safe for concurrent use — Clone one per goroutine.
type Engine struct {
	cfg     Config
	solver  *smt.Solver
	binding *rules.Binding
	// ruleFormula is the rule set compiled once against the binding's
	// variables; clones re-assert it instead of recompiling. Sharing is
	// sound because rules.Instantiate declares variables in schema order,
	// so every clone's solver assigns the same Var ids.
	ruleFormula smt.Formula
	// digitTok[d] is the token id of digit d.
	digitTok  [10]int
	maxDigits map[string]int // per field, from the domain's upper bound
	// tailChars[i] is the most tokens slots i.. can render: each slot's
	// widest value plus its separator.
	tailChars []int
	// domainSys holds, per grammar field, the grammar/width automaton over
	// the field's declared domain: the structural mirror of every slot and
	// the whole mask in StructureOnly mode. It is stateless, so one per
	// field serves every slot.
	domainSys map[string]*transition.System
	// lastModel is the most recent model the solver produced, indexed by
	// smt.Var and valid while the epoch matches lastModelEpoch; it seeds each
	// slot oracle's witness so a slot's first probe (HasPath) usually costs
	// no solver check.
	lastModel      []int64
	lastModelEpoch uint64
	// varConjuncts[v] lists the rule formula's top-level conjuncts that
	// mention v, built lazily on the first model-patching attempt
	// (oracle.go). Shared across records: the rule formula never changes
	// after construction.
	varConjuncts [][]smt.Formula
	// fingerprint is the rule-epoch fingerprint stamped on prefix-cache
	// snapshots: a hash of everything that decides whether a cached
	// (KV state, witness model) pair is still valid — the rule set, schema,
	// grammar, decode mode, pack identity, and the LM's identity. It doubles
	// as the pack epoch (internal/pack): a hot reload builds a new engine
	// whose fingerprint differs exactly when the rule environment changed, so
	// snapshots from a stale pack are dropped on sight. A cache shared across
	// engine families with different fingerprints simply never cross-serves.
	fingerprint uint64
	// poolMu guards pool, a free list of idle clones DecodeRequests draws its
	// per-record engines from (lockstep.go), so they are cloned once and then
	// recycled across batches. Only the root engine of a clone family pools.
	// poolDemand is the largest concurrent-lane demand seen so far; it lifts
	// the pool's retention cap above 2×NumCPU so large micro-batches on
	// small hosts keep their clones across steady-state batches.
	poolMu     sync.Mutex
	pool       []*Engine
	poolDemand int
	// sessions is a free list of batch sessions, guarded by poolMu, that
	// decodeLockStep draws from so a lane group does not allocate (and
	// zero) a fresh KV arena per batch (lockstep.go).
	sessions []reusableBatchSession

	// Per-lane scratch. An engine decodes one lane at a time, so a pooled
	// clone carries its lane's sampling buffers (sampleMasked), the RNG a
	// batch request is drawn from (seeded per request, see seededRNG), and
	// the oracle's range buffer (FeasibleAny) from record to record.
	rng       *rand.Rand
	candBuf   []cand
	weightBuf []float64
	rangeBuf  [][2]int64
}

// NewEngine validates the configuration, compiles the rules, and returns a
// ready engine.
func NewEngine(cfg Config) (*Engine, error) {
	return newEngine(cfg, nil)
}

// newEngine builds an engine; when ruleFormula is non-nil it is asserted
// as-is (the clone path), skipping rule compilation and the initial
// satisfiability pre-check, which the originating engine already did.
func newEngine(cfg Config, ruleFormula smt.Formula) (*Engine, error) {
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
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 8
	}
	if cfg.LM.VocabSize() != cfg.Tok.Size() {
		return nil, fmt.Errorf("core: LM vocab %d != tokenizer %d", cfg.LM.VocabSize(), cfg.Tok.Size())
	}

	e := &Engine{cfg: cfg, maxDigits: map[string]int{}}
	e.digitTok = cfg.Tok.DigitIDs()
	for d, id := range e.digitTok {
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
		e.maxDigits[s.Field] = len(strconv.FormatInt(f.Hi, 10))
	}
	e.domainSys = make(map[string]*transition.System, len(e.maxDigits))
	for name, width := range e.maxDigits {
		f, _ := cfg.Schema.Field(name)
		e.domainSys[name] = transition.New(width, func(lo, hi int64) bool { return lo <= f.Hi && f.Lo <= hi })
	}
	e.tailChars = make([]int, len(cfg.Slots)+1)
	for i := len(cfg.Slots) - 1; i >= 0; i-- {
		e.tailChars[i] = e.tailChars[i+1] + e.maxDigits[cfg.Slots[i].Field] + 1
	}

	e.solver = smt.NewSolver()
	if cfg.MaxNodes > 0 {
		e.solver.MaxNodes = cfg.MaxNodes
	}
	e.solver.Timeout = cfg.SolverTimeout
	e.binding = rules.Instantiate(e.solver, cfg.Schema)
	if cfg.Rules != nil && cfg.Mode == LeJIT {
		if ruleFormula != nil {
			e.ruleFormula = ruleFormula
			e.solver.Assert(ruleFormula)
		} else {
			f, err := cfg.Rules.CompileAll(e.binding)
			if err != nil {
				return nil, fmt.Errorf("core: compiling rules: %w", err)
			}
			e.ruleFormula = f
			e.solver.Assert(f)
			if r := e.solver.Check(); r.Status != smt.Sat {
				return nil, fmt.Errorf("core: rule set is unsatisfiable on its own (%v)", r.Status)
			}
		}
	}
	e.fingerprint = ruleFingerprint(cfg)
	return e, nil
}

// ruleFingerprint hashes the rule environment a prefix-cache snapshot is
// valid under. Two engines agree on a fingerprint exactly when a snapshot
// captured by one is sound for the other: same compiled rules (RuleSet.String
// is the parseable DSL rendering), same schema domains, same grammar (the
// token⇄slot-value mapping), same enforcement mode, and the same transformer
// weights (by model identity — the cache is in-process, and cached sessions
// keep their model reachable, so the pointer cannot be recycled under a live
// entry). Sampling knobs (temperature, top-K, seeds) are deliberately
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

// configure applies set to the engine and to every idle clone in its pool.
// The Set* methods below write their setting into cfg through it, so future
// clones inherit the setting and pooled ones — the engines lanes actually run
// on — do not keep a stale one. Call before decoding begins: clones checked
// out mid-decode are not reached.
func (e *Engine) configure(set func(*Engine)) {
	set(e)
	e.poolMu.Lock()
	for _, c := range e.pool {
		set(c)
	}
	e.poolMu.Unlock()
}

// SetPrefixCache installs (or, with nil, removes) the cross-request prefix
// cache on the engine after construction (see configure).
func (e *Engine) SetPrefixCache(cache *prefixcache.Cache) {
	e.configure(func(c *Engine) {
		c.cfg.PrefixCache = cache
		c.fingerprint = e.fingerprint
	})
}

// PrefixCache returns the engine's prefix cache (nil when disabled).
func (e *Engine) PrefixCache() *prefixcache.Cache { return e.cfg.PrefixCache }

// SetSolverBudget installs a per-Check solver budget (node limit and
// wall-clock deadline; a zero leaves that dimension unlimited) on the engine
// after construction, covering engines built by helpers that take no Config
// (the experiments harness, -demo). The engine, its idle pooled clones and,
// through cfg, every future Clone get it (see configure).
func (e *Engine) SetSolverBudget(maxNodes uint64, timeout time.Duration) {
	e.configure(func(c *Engine) {
		if maxNodes > 0 {
			c.cfg.MaxNodes = maxNodes
			c.solver.MaxNodes = maxNodes
		}
		c.cfg.SolverTimeout = timeout
		c.solver.Timeout = timeout
	})
}

// SetLookahead sets the speculative-decoding window (Config.Lookahead)
// after construction (see configure).
func (e *Engine) SetLookahead(k int) {
	e.configure(func(c *Engine) { c.cfg.Lookahead = k })
}

// Clone returns an independent engine with the same configuration (for
// parallel decoding). The compiled rule formula is shared — it is an
// immutable tree and both solvers bind identical Var ids — so cloning does
// no rule recompilation and zero solver checks.
func (e *Engine) Clone() (*Engine, error) { return newEngine(e.cfg, e.ruleFormula) }

// Rules returns the engine's rule set (may be nil).
func (e *Engine) Rules() *rules.RuleSet { return e.cfg.Rules }

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
		st.OptQueries += cs.OptQueries
		st.BaseBuilds += cs.BaseBuilds
		st.WarmStarts += cs.WarmStarts
		st.BudgetStops += cs.BudgetStops
	}
	e.poolMu.Unlock()
	return st
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
	var b strings.Builder
	covered := 0
	for _, s := range e.cfg.Slots {
		vs, ok := known[s.Field]
		if !ok {
			break
		}
		if s.Index >= len(vs) {
			return "", 0, fmt.Errorf("core: known field %q has %d values, slot needs index %d", s.Field, len(vs), s.Index)
		}
		b.WriteString(strconv.FormatInt(vs[s.Index], 10))
		b.WriteByte(s.Sep)
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
	return b.String(), covered, nil
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

// newPromptedSession starts an LM session primed with BOS and the prompt.
func (e *Engine) newPromptedSession(prompt string) (Session, error) {
	sess := e.cfg.LM.NewSession()
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

// sampleMasked samples a token among allowed ids using the engine's
// temperature and top-K, renormalizing the remaining mass so the model's
// relative preferences among admissible tokens are preserved (the
// minimal-invasiveness property, §3). rng is consumed through floatSource
// so speculative lanes can substitute a replaying buffer (spec.go); the
// draw discipline — exactly one Float64, and none for a forced mask — is
// what keeps RNG streams aligned across rollbacks.
func (e *Engine) sampleMasked(logits []float32, allowed []int, rng floatSource) int {
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
	if k := e.cfg.TopK; k > 0 && k < len(cands) {
		// Partial selection sort of the K largest.
		for i := 0; i < k; i++ {
			best := i
			for j := i + 1; j < len(cands); j++ {
				if cands[j].l > cands[best].l {
					best = j
				}
			}
			cands[i], cands[best] = cands[best], cands[i]
		}
		cands = cands[:k]
	}
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
// rand.New(rand.NewSource(seed)) would produce, without the 4.9 KB source
// such a call allocates. The RNG belongs to the one lane the engine decodes
// and is re-seeded for the next.
func (e *Engine) seededRNG(seed int64) *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(seed))
	} else {
		e.rng.Seed(seed)
	}
	return e.rng
}
