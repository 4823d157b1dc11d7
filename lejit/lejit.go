// Package lejit is the public API of the LeJIT library: Just-in-Time Logic
// Enforcement for autoregressive models on network-management tasks
// (Hè & Apostolaki, HotNets '25).
//
// LeJIT interleaves an SMT solver into a language model's token-by-token
// inference. Before each character is emitted, the solver computes — from a
// configurable set of network rules and everything generated so far — which
// next characters still lead to a rule-compliant completion, masks the rest,
// and renormalizes. Outputs are guaranteed to satisfy every rule while
// preserving the model's learned distribution among compliant choices.
//
// Every guided decode runs through one loop (DESIGN.md §9): Impute and
// Generate decode a batch of one record, ImputeBatch a batch of many that
// shares each forward pass of the model. A record's output depends on its
// prompt and seed only, never on what it is batched with, and a panic inside
// a decode is returned as an error rather than raised.
//
// The same trained model is repurposed across tasks by swapping rule sets:
//
//	pipe, _ := lejit.NewPipeline(model, schema, imputationRules)
//	rec, _ := pipe.Impute(coarseCounters, rng)   // telemetry imputation
//
//	pipe2, _ := lejit.NewPipeline(model, schema, synthesisRules)
//	rec, _ = pipe2.Generate(rng)                 // synthetic data
//
// See examples/quickstart for a complete runnable program and DESIGN.md for
// the architecture.
package lejit

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// Re-exported domain types. The rule language, schema model, and record
// representation are defined in internal/rules; these aliases are the public
// names.
type (
	// Schema declares the telemetry fields of one record shape.
	Schema = rules.Schema
	// Field declares one telemetry field (scalar or fixed-length vector)
	// with its finite integer domain.
	Field = rules.Field
	// Record holds one concrete record: field name → values.
	Record = rules.Record
	// RuleSet is a parsed collection of rules bound to a schema.
	RuleSet = rules.RuleSet
	// Rule is one named rule.
	Rule = rules.Rule
	// Model is a trained autoregressive language model.
	Model = nn.Model
	// ModelConfig describes a model architecture.
	ModelConfig = nn.Config
	// TrainConfig controls model training.
	TrainConfig = nn.TrainConfig
	// Tokenizer is the character-level tokenizer.
	Tokenizer = vocab.Tokenizer
	// Stats reports what one decode did (tokens, masked steps, solver calls).
	Stats = core.Stats
	// Slot is one value position in the output grammar.
	Slot = core.Slot
)

// Field kinds.
const (
	Scalar = rules.Scalar
	Vector = rules.Vector
)

// NewSchema builds a schema from fields (error on duplicates/empty domains).
func NewSchema(fields ...Field) (*Schema, error) { return rules.NewSchema(fields...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(fields ...Field) *Schema { return rules.MustSchema(fields...) }

// ParseRules parses rule-DSL source against a schema. The DSL supports
// bounds, linear arithmetic, sum/max/min aggregates, chained comparisons,
// forall/exists quantifiers, and implications; see internal/rules.
func ParseRules(src string, schema *Schema) (*RuleSet, error) {
	return rules.ParseRuleSet(src, schema)
}

// MineOptions configures automatic rule discovery (the NetNomos-style miner).
type MineOptions struct {
	// Fields restricts mining to these schema fields (nil → all).
	Fields []string
	// Slack widens mined bounds for generalization to unseen data.
	Slack int64
	// Coeffs are the multipliers tried in pairwise A ≤ k·B + c rules
	// (nil → {1, 2}).
	Coeffs []int64
}

// MineRules discovers hard rules from training records; every returned rule
// holds on every input record.
func MineRules(recs []Record, schema *Schema, opts MineOptions) (*RuleSet, error) {
	return mining.Mine(recs, schema, mining.Config{
		Fields: opts.Fields, Slack: opts.Slack, Coeffs: opts.Coeffs,
	})
}

// TelemetryTokenizer returns the character-level tokenizer for the telemetry
// text format (digits plus ',', '|', ':' and newline).
func TelemetryTokenizer() *Tokenizer { return vocab.Telemetry() }

// NewModel initializes an untrained model with the given architecture.
func NewModel(cfg ModelConfig, seed int64) (*Model, error) { return nn.New(cfg, seed) }

// LoadModel reads a model previously written with (*Model).Save.
func LoadModel(r io.Reader) (*Model, error) { return nn.Load(r) }

// TrainOnRecords renders records in the telemetry text format of the given
// schema, tokenizes them, and trains the model, returning the per-step loss
// history.
func TrainOnRecords(m *Model, recs []Record, schema *Schema, tc TrainConfig) ([]float64, error) {
	tok := vocab.Telemetry()
	seqs := make([][]int, 0, len(recs))
	for i, rec := range recs {
		line, err := FormatRecord(rec, schema)
		if err != nil {
			return nil, fmt.Errorf("lejit: rendering record %d: %w", i, err)
		}
		seq, err := tok.EncodeSeq(line)
		if err != nil {
			return nil, fmt.Errorf("lejit: encoding record %d: %w", i, err)
		}
		seqs = append(seqs, seq)
	}
	return m.Train(seqs, tc)
}

// PipelineOption customizes a Pipeline.
type PipelineOption func(*core.Config)

// WithTemperature sets the sampling temperature (default 1.0).
func WithTemperature(t float64) PipelineOption {
	return func(c *core.Config) { c.Temperature = t }
}

// WithTopK restricts sampling to the K most likely admissible tokens.
func WithTopK(k int) PipelineOption {
	return func(c *core.Config) { c.TopK = k }
}

// WithGrammar overrides the output grammar (default: the telemetry grammar
// over the schema's scalar fields followed by its vector field).
func WithGrammar(slots []Slot) PipelineOption {
	return func(c *core.Config) { c.Slots = slots }
}

// WithoutSolver downgrades enforcement to structural masking only (grammar +
// field domains) — the constrained-decoding baseline, useful for ablations.
func WithoutSolver() PipelineOption {
	return func(c *core.Config) { c.Mode = core.StructureOnly }
}

// WithMaxAttempts caps rejection-sampling attempts (default 500).
func WithMaxAttempts(n int) PipelineOption {
	return func(c *core.Config) { c.MaxAttempts = n }
}

// Pipeline couples a trained model with a rule set for guided decoding.
// A Pipeline is not safe for concurrent use; build one per goroutine or use
// ImputeBatch, which parallelizes internally.
type Pipeline struct {
	eng    *core.Engine
	cfg    core.Config
	rules  *RuleSet
	schema *Schema
}

// NewPipeline assembles a LeJIT pipeline. The default grammar renders the
// schema's scalar fields (declaration order, ',' separated, then '|')
// followed by its single vector field (',' separated, final newline) —
// matching the telemetry text format the model is trained on. Pass
// WithGrammar for other shapes.
func NewPipeline(m *Model, schema *Schema, rs *RuleSet, opts ...PipelineOption) (*Pipeline, error) {
	cfg := core.Config{
		LM:     core.WrapNN(m),
		Tok:    vocab.Telemetry(),
		Schema: schema,
		Rules:  rs,
		Mode:   core.LeJIT,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Slots == nil {
		slots, err := defaultGrammar(schema)
		if err != nil {
			return nil, err
		}
		cfg.Slots = slots
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Pipeline{eng: eng, cfg: cfg, rules: rs, schema: schema}, nil
}

// defaultGrammar derives the telemetry grammar from the schema: scalars in
// declaration order, then the vector field (exactly one required).
func defaultGrammar(schema *Schema) ([]Slot, error) {
	var coarse []string
	fine := ""
	for _, f := range schema.Fields() {
		if f.Kind == rules.Vector {
			if fine != "" {
				return nil, fmt.Errorf("lejit: schema has multiple vector fields; pass WithGrammar")
			}
			fine = f.Name
			continue
		}
		coarse = append(coarse, f.Name)
	}
	if fine == "" {
		return nil, fmt.Errorf("lejit: schema has no vector field; pass WithGrammar")
	}
	return core.TelemetryGrammar(schema, coarse, fine)
}

// Impute generates the fields not covered by known, conditioned on the known
// prefix, with Just-in-Time rule enforcement. The returned record satisfies
// every rule in the pipeline's rule set.
func (p *Pipeline) Impute(known Record, rng *rand.Rand) (Record, Stats, error) {
	res, err := p.eng.Impute(known, rng)
	return res.Rec, res.Stats, err
}

// Generate produces a full record unconditionally under rule enforcement.
func (p *Pipeline) Generate(rng *rand.Rand) (Record, Stats, error) {
	res, err := p.eng.Generate(rng)
	return res.Rec, res.Stats, err
}

// Sample decodes without any rule enforcement (the vanilla baseline).
func (p *Pipeline) Sample(known Record, rng *rand.Rand) (Record, Stats, error) {
	res, err := p.eng.Vanilla(known, rng)
	return res.Rec, res.Stats, err
}

// SampleRejection resamples until the output complies with the rules (the
// rejection baseline); errors once the attempt cap is exhausted.
func (p *Pipeline) SampleRejection(known Record, rng *rand.Rand) (Record, Stats, error) {
	res, err := p.eng.Rejection(known, rng)
	return res.Rec, res.Stats, err
}

// SampleRepair decodes freely and projects violating outputs onto the rules
// by L1-minimal repair (the post-hoc baseline).
func (p *Pipeline) SampleRepair(known Record, rng *rand.Rand) (Record, Stats, error) {
	res, err := p.eng.PostHoc(known, rng)
	return res.Rec, res.Stats, err
}

// ImputeBeam decodes with beam search of the given width instead of
// sampling: deterministic, (approximately) most-likely rule-compliant
// output; Stats.LogProb carries the sequence's renormalized log-probability.
func (p *Pipeline) ImputeBeam(known Record, width int) (Record, Stats, error) {
	res, err := p.eng.BeamImpute(known, width)
	return res.Rec, res.Stats, err
}

// ImputeBatch decodes many prompts as one batch on at most workers
// goroutines (workers ≤ 0 → GOMAXPROCS), returning per-prompt records and
// errors in prompt order. Deterministic in seed regardless of worker count.
// The pipeline's engine is reused: each record decodes on a pooled clone
// sharing its compiled rule formula, so spin-up is cheap.
func (p *Pipeline) ImputeBatch(prompts []Record, workers int, seed int64) ([]Record, []error, error) {
	out, err := p.eng.DecodeBatch(prompts, workers, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	recs := make([]Record, len(out))
	errs := make([]error, len(out))
	for i, r := range out {
		recs[i], errs[i] = r.Res.Rec, r.Err
	}
	return recs, errs, nil
}

// Diagnose explains an infeasible prompt: it returns a minimal set of rule
// names that, together with the known values, admit no completion.
func (p *Pipeline) Diagnose(known Record) ([]string, error) {
	return p.eng.DiagnoseInfeasible(known)
}

// Violations returns the names of the pipeline rules rec violates.
func (p *Pipeline) Violations(rec Record) ([]string, error) {
	if p.rules == nil {
		return nil, nil
	}
	return p.rules.Violations(rec)
}

// Rules returns the pipeline's rule set.
func (p *Pipeline) Rules() *RuleSet { return p.rules }

// FormatRecord renders a record in the telemetry text format under the given
// schema (scalars in declaration order, then the vector field).
func FormatRecord(rec Record, schema *Schema) (string, error) {
	slots, err := defaultGrammar(schema)
	if err != nil {
		return "", err
	}
	var b []byte
	for _, s := range slots {
		vs, ok := rec[s.Field]
		if !ok || s.Index >= len(vs) {
			return "", fmt.Errorf("lejit: record missing %s[%d]", s.Field, s.Index)
		}
		b = append(b, fmt.Sprintf("%d%c", vs[s.Index], s.Sep)...)
	}
	return string(b), nil
}

// IsInfeasible reports whether err indicates that no rule-compliant
// completion exists for the given prompt.
func IsInfeasible(err error) bool {
	_, ok := err.(core.ErrInfeasible)
	return ok
}

// TelemetrySchema returns the canonical datacenter-telemetry schema used by
// the built-in simulator and the paper's experiments: five coarse counters
// (TotalIngress, Congestion, Retrans, Egress, Conns) plus the fine-grained
// ingress vector I[0..4].
func TelemetrySchema() *Schema { return dataset.Schema() }

// SimulateTelemetry generates per-rack datacenter telemetry records with the
// built-in simulator (the substitute for the paper's Meta traces; see
// DESIGN.md §1). Deterministic in the seed.
func SimulateTelemetry(racks, windowsPerRack int, seed int64) []Record {
	ws := dataset.Generate(dataset.Config{Racks: racks, WindowsPerRack: windowsPerRack, Seed: seed})
	return dataset.Records(ws)
}

// TelemetryCoarseFields lists the coarse scalar fields of TelemetrySchema in
// serialization order.
func TelemetryCoarseFields() []string { return dataset.CoarseFields() }

// SimulatorConfig exposes the telemetry simulator's realism knobs.
type SimulatorConfig struct {
	Racks          int
	WindowsPerRack int
	Seed           int64
	// DiurnalAmplitude ∈ [0,1] adds a time-of-day load cycle.
	DiurnalAmplitude float64
	// DiurnalPeriod is the cycle length in windows (0 → 48).
	DiurnalPeriod int
	// AnomalyRate injects incident windows (extreme but rule-compliant).
	AnomalyRate float64
}

// SimulateTelemetryWith is SimulateTelemetry with full control over the
// simulator's diurnal and anomaly behaviour.
func SimulateTelemetryWith(cfg SimulatorConfig) []Record {
	ws := dataset.Generate(dataset.Config{
		Racks: cfg.Racks, WindowsPerRack: cfg.WindowsPerRack, Seed: cfg.Seed,
		DiurnalAmplitude: cfg.DiurnalAmplitude, DiurnalPeriod: cfg.DiurnalPeriod,
		AnomalyRate: cfg.AnomalyRate,
	})
	return dataset.Records(ws)
}
