// Package pack turns the engine's hard-wired telemetry wiring into
// pluggable domain packs. A pack is a self-contained, versioned bundle of
// schema + rule-file source + decode shape (slot order, separators, prompt
// fields) + a small example corpus, compiled once into the shared read-only
// form the engine clones from (rules compiled to one formula, solver
// pre-checked for satisfiability) and registered in a concurrent-safe
// registry (registry.go). The engine's rule-epoch fingerprint doubles as the
// pack epoch: a hot reload builds a fresh engine whose fingerprint differs
// exactly when the rule environment changed, so prefix-cache snapshots from
// a stale pack are dropped on sight while in-flight requests finish on the
// engine they were admitted with. See DESIGN.md §14.
package pack

import (
	"fmt"
	"regexp"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// GrammarField is one field of a pack's decode shape, in serialization
// order. A scalar contributes one slot terminated by After; a vector of
// length n contributes n slots separated by ElemSep with After closing the
// last one. The final grammar field's After is the record terminator
// (conventionally '\n').
type GrammarField struct {
	Field   string
	ElemSep byte // between vector elements (ignored for scalars)
	After   byte // after the field's last element
}

// Definition describes a domain pack before compilation.
type Definition struct {
	// Name identifies the pack; requests select it by this name and it is
	// folded into the rule-epoch fingerprint so two packs with coinciding
	// rule environments still never cross-serve cached state.
	Name string
	// Version is a human-readable bundle version (e.g. "v1"); purely
	// informational, surfaced by /v1/packs.
	Version string
	Schema  *rules.Schema
	// RuleText is the pack's rule-file source in the rules DSL. Empty means
	// no rules: guided decoding enforces grammar and field domains only.
	RuleText string
	// Alphabet is the tokenizer alphabet; it must cover every digit and
	// every separator the grammar uses.
	Alphabet string
	Grammar  []GrammarField
	// PromptFields names the leading grammar fields an imputation prompt
	// covers (a grammar prefix); the rest are decoded.
	PromptFields []string
	// Examples is a small rule-compliant corpus: Compile rejects a pack
	// whose own examples violate its rules, and the demo/bench layers train
	// tiny LMs and draw prompts from it.
	Examples []rules.Record

	// LM decodes for this pack. nil means UniformLM (a placeholder that
	// leaves all steering to the rules — file-loaded packs without a model).
	LM          core.LM
	Mode        core.Mode
	Temperature float64
	// MaxNodes / SolverTimeout bound each solver check (0 → defaults);
	// FuzzLoadPack sets them tight so hostile rule files cannot stall.
	MaxNodes      uint64
	SolverTimeout time.Duration
}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_-]{0,31}$`)

// Tokenizer builds the pack's tokenizer from its alphabet.
func (d *Definition) Tokenizer() (*vocab.Tokenizer, error) {
	return vocab.New(d.Alphabet)
}

// Slots expands the grammar into the engine's slot form.
func (d *Definition) Slots() ([]core.Slot, error) {
	if len(d.Grammar) == 0 {
		return nil, fmt.Errorf("pack %s: empty grammar", d.Name)
	}
	var slots []core.Slot
	for _, g := range d.Grammar {
		f, ok := d.Schema.Field(g.Field)
		if !ok {
			return nil, fmt.Errorf("pack %s: grammar field %q not in schema", d.Name, g.Field)
		}
		if f.Kind == rules.Scalar {
			slots = append(slots, core.Slot{Field: g.Field, Index: 0, Sep: g.After})
			continue
		}
		for i := 0; i < f.Len; i++ {
			sep := g.ElemSep
			if i == f.Len-1 {
				sep = g.After
			}
			slots = append(slots, core.Slot{Field: g.Field, Index: i, Sep: sep})
		}
	}
	return slots, nil
}

// PromptOf projects a record to the pack's prompt fields (the imputation
// prompt: a grammar prefix).
func (d *Definition) PromptOf(rec rules.Record) rules.Record {
	out := rules.Record{}
	for _, f := range d.PromptFields {
		if vs, ok := rec[f]; ok {
			out[f] = append([]int64(nil), vs...)
		}
	}
	return out
}

// Compiled is a pack compiled into the shared read-only serving form: rules
// parsed and compiled once into the engine's formula (clones share it), the
// solver pre-checked for satisfiability, and the epoch stamped. Immutable
// after construction — a reload builds a new Compiled and swaps the pointer.
type Compiled struct {
	Def    Definition
	Tok    *vocab.Tokenizer
	Schema *rules.Schema
	// Rules is the parsed rule set (nil when the pack has none).
	Rules  *rules.RuleSet
	Engine *core.Engine
	// Epoch is the engine's rule-epoch fingerprint: it changes exactly when
	// a reload changes the rule environment, and gates prefix-cache reuse.
	Epoch uint64
	// Generation counts reloads: 1 for the initially registered bundle.
	Generation int
}

// Compile validates a definition and builds its serving form. The example
// corpus is checked against the rules — a pack whose own examples violate
// its rules is rejected as miswritten.
func Compile(def Definition) (*Compiled, error) {
	return compile(def, true)
}

func compile(def Definition, checkExamples bool) (*Compiled, error) {
	if !nameRE.MatchString(def.Name) {
		return nil, fmt.Errorf("pack: invalid name %q (want %s)", def.Name, nameRE)
	}
	if def.Schema == nil {
		return nil, fmt.Errorf("pack %s: schema is required", def.Name)
	}
	tok, err := def.Tokenizer()
	if err != nil {
		return nil, fmt.Errorf("pack %s: %w", def.Name, err)
	}
	slots, err := def.Slots()
	if err != nil {
		return nil, err
	}
	if def.LM == nil {
		def.LM = UniformLM(tok.Size())
	}
	var rs *rules.RuleSet
	if strings.TrimSpace(def.RuleText) != "" {
		rs, err = rules.ParseRuleSet(def.RuleText, def.Schema)
		if err != nil {
			return nil, fmt.Errorf("pack %s: %w", def.Name, err)
		}
	}
	if checkExamples {
		for i, rec := range def.Examples {
			if err := def.Schema.Validate(rec); err != nil {
				return nil, fmt.Errorf("pack %s: example %d: %w", def.Name, i, err)
			}
			if rs != nil {
				viol, err := rs.Violations(rec)
				if err != nil {
					return nil, fmt.Errorf("pack %s: example %d: %w", def.Name, i, err)
				}
				if len(viol) > 0 {
					return nil, fmt.Errorf("pack %s: example %d violates its own rules: %v", def.Name, i, viol)
				}
			}
		}
	}
	// NewEngine compiles the rules into the shared formula and pre-checks
	// satisfiability, so an unsatisfiable rule file is rejected here — off
	// the serving hot path — rather than failing every decode.
	eng, err := core.NewEngine(core.Config{
		LM: def.LM, Tok: tok, Schema: def.Schema, PackName: def.Name,
		Rules: rs, Slots: slots, Mode: def.Mode,
		Temperature: def.Temperature,
		MaxNodes:    def.MaxNodes, SolverTimeout: def.SolverTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("pack %s: %w", def.Name, err)
	}
	return &Compiled{
		Def: def, Tok: tok, Schema: def.Schema, Rules: rs,
		Engine: eng, Epoch: eng.Fingerprint(), Generation: 1,
	}, nil
}

// FromEngine wraps an already-built engine as a pack, used as-is rather than
// rebuilt from a Definition. It is a test seam: it lets a test serve a
// hand-built engine (a FaultHook, a gated or stub LM) through a registry;
// everything else builds packs with Compile.
func FromEngine(name string, eng *core.Engine, rs *rules.RuleSet, schema *rules.Schema) (*Compiled, error) {
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("pack: invalid name %q (want %s)", name, nameRE)
	}
	if eng == nil {
		return nil, fmt.Errorf("pack %s: engine is required", name)
	}
	def := Definition{Name: name, Version: "v1", Schema: schema}
	if rs != nil {
		def.RuleText = rs.String()
	}
	return &Compiled{
		Def: def, Schema: schema, Rules: rs,
		Engine: eng, Epoch: eng.Fingerprint(), Generation: 1,
	}, nil
}

// FormatRecord renders a record in the pack's grammar order (digits and
// separators) — the text format the pack's LM is trained on.
func (c *Compiled) FormatRecord(rec rules.Record) (string, error) {
	s, err := formatBySlots(c.Engine.Slots(), rec)
	if err != nil {
		return "", fmt.Errorf("pack %s: %w", c.Def.Name, err)
	}
	return s, nil
}

// EpochHex renders the pack epoch as the fixed-width hex string used on the
// wire (a JSON number would lose uint64 precision in some clients).
func (c *Compiled) EpochHex() string { return fmt.Sprintf("%016x", c.Epoch) }

// UniformLM returns a placeholder language model that assigns equal logits
// to every token, leaving all steering to the grammar and rules. It backs
// file-loaded packs that ship no trained model, and tests.
func UniformLM(vocabSize int) core.LM { return uniformLM{vocab: vocabSize} }

type uniformLM struct{ vocab int }

func (u uniformLM) VocabSize() int { return u.vocab }
func (u uniformLM) NewSession() core.Session {
	return &uniformSession{logits: make([]float32, u.vocab)}
}

type uniformSession struct{ logits []float32 }

func (s *uniformSession) Append(tok int) error { return nil }
func (s *uniformSession) Logits() []float32    { return s.logits }
