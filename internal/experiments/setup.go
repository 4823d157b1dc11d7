// Package experiments contains one driver per figure in the paper's
// evaluation (§4): data preparation, model training (cached on disk),
// rule mining, the per-method decoding loops, and the table printers that
// cmd/lejit-bench and bench_test.go invoke. See DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for recorded results.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// ScaleConfig sets the experiment scale. The paper runs 90 racks and >30K
// test windows on a GPU cluster; the defaults here are laptop-scale with the
// same structure — every driver accepts a custom scale for larger runs.
type ScaleConfig struct {
	Racks          int // total racks (default 90, as in the paper)
	WindowsPerRack int // windows per rack (default 60)
	TrainRacks     int // default 80
	TestRacks      int // default 10
	TestN          int // test windows evaluated per figure (default 120)
	SampleN        int // synthetic samples per generator in Fig 5 (default 400)

	ModelDim    int // transformer width (default 64)
	ModelLayers int // default 2
	ModelHeads  int // default 4
	Epochs      int // training epochs (default 3)

	MiningSlack  int64   // bound slack for mined rules (default 2)
	MiningCoeffs []int64 // pairwise coefficients (default {1,2,3})

	Temperature float64 // decoding temperature (default 0.9)
	Seed        int64
	// Workers is the decode-worker count for engine-backed methods
	// (default runtime.GOMAXPROCS(0)). Results are deterministic in Seed
	// regardless of the value — see core.DecodeBatch.
	Workers int

	CacheDir string // model cache directory ("" → no caching)
	Quiet    bool   // suppress progress logging
}

// DefaultScale returns the laptop-scale defaults.
func DefaultScale() ScaleConfig {
	return ScaleConfig{
		Racks: 90, WindowsPerRack: 60, TrainRacks: 80, TestRacks: 10,
		TestN: 120, SampleN: 400,
		ModelDim: 64, ModelLayers: 2, ModelHeads: 4, Epochs: 3,
		MiningSlack: 2, MiningCoeffs: []int64{1, 2, 3},
		Temperature: 0.9, Seed: 1, CacheDir: "artifacts",
	}
}

// TinyScale returns a minimal configuration for tests (seconds, not
// minutes); results are structurally valid but statistically noisy.
func TinyScale() ScaleConfig {
	sc := DefaultScale()
	sc.Racks, sc.WindowsPerRack = 12, 30
	sc.TrainRacks, sc.TestRacks = 10, 2
	sc.TestN, sc.SampleN = 20, 60
	sc.ModelDim, sc.ModelLayers, sc.ModelHeads = 32, 1, 2
	sc.Epochs = 2
	sc.CacheDir = ""
	sc.Quiet = true
	return sc
}

func (sc *ScaleConfig) fill() {
	d := DefaultScale()
	if sc.Racks == 0 {
		sc.Racks = d.Racks
	}
	if sc.WindowsPerRack == 0 {
		sc.WindowsPerRack = d.WindowsPerRack
	}
	if sc.TrainRacks == 0 {
		sc.TrainRacks = d.TrainRacks
	}
	if sc.TestRacks == 0 {
		sc.TestRacks = d.TestRacks
	}
	if sc.TestN == 0 {
		sc.TestN = d.TestN
	}
	if sc.SampleN == 0 {
		sc.SampleN = d.SampleN
	}
	if sc.ModelDim == 0 {
		sc.ModelDim = d.ModelDim
	}
	if sc.ModelLayers == 0 {
		sc.ModelLayers = d.ModelLayers
	}
	if sc.ModelHeads == 0 {
		sc.ModelHeads = d.ModelHeads
	}
	if sc.Epochs == 0 {
		sc.Epochs = d.Epochs
	}
	if sc.MiningSlack == 0 {
		sc.MiningSlack = d.MiningSlack
	}
	if sc.MiningCoeffs == nil {
		sc.MiningCoeffs = d.MiningCoeffs
	}
	if sc.Temperature == 0 {
		sc.Temperature = d.Temperature
	}
	if sc.Seed == 0 {
		sc.Seed = d.Seed
	}
	if sc.Workers == 0 {
		sc.Workers = runtime.GOMAXPROCS(0)
	}
}

// ManualRulesText is the Zoom2Net-style hand-written rule set (the paper's
// "manual rules C4–C7" baseline): capacity, conservation, the ECN burst
// implication, and smoothness.
const ManualRulesText = `
const BW = 60
const T  = 5
rule c4: forall t in 0..T-1: 0 <= I[t] and I[t] <= BW
rule c5: sum(I) == TotalIngress
rule c6: Congestion > 0 -> max(I) >= BW/2
rule c7: forall t in 0..T-2: I[t+1] - I[t] <= BW and I[t] - I[t+1] <= BW
`

// Env is everything a figure driver needs: data splits, the trained model,
// and the three rule sets.
type Env struct {
	Scale  ScaleConfig
	Schema *rules.Schema
	Tok    *vocab.Tokenizer
	Model  *nn.Model

	Train, Test []dataset.Window

	ImputeRules *rules.RuleSet // full mined set over all fields (paper: 716)
	SynthRules  *rules.RuleSet // mined set over coarse fields only (paper: 255)
	ManualRules *rules.RuleSet // the 4 manual rules (C4–C7)
}

// Logf logs progress unless the scale is quiet.
func (e *Env) Logf(format string, args ...any) {
	if !e.Scale.Quiet {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// Prepare generates the corpus, trains (or loads) the model, and mines the
// rule sets. Deterministic in ScaleConfig.
func Prepare(sc ScaleConfig) (*Env, error) {
	sc.fill()
	env := &Env{Scale: sc, Schema: dataset.Schema(), Tok: vocab.Telemetry()}

	env.Logf("experiments: generating %d racks × %d windows", sc.Racks, sc.WindowsPerRack)
	ws := dataset.Generate(dataset.Config{Racks: sc.Racks, WindowsPerRack: sc.WindowsPerRack, Seed: sc.Seed})
	env.Train, env.Test = dataset.Split(ws, sc.TrainRacks, sc.TestRacks)
	if len(env.Train) == 0 || len(env.Test) == 0 {
		return nil, fmt.Errorf("experiments: empty split (racks %d train %d test %d)", sc.Racks, sc.TrainRacks, sc.TestRacks)
	}

	env.Logf("experiments: mining rules from %d training windows", len(env.Train))
	var err error
	env.ImputeRules, err = mining.Mine(dataset.Records(env.Train), env.Schema,
		mining.Config{Slack: sc.MiningSlack, Coeffs: sc.MiningCoeffs})
	if err != nil {
		return nil, fmt.Errorf("experiments: mining imputation rules: %w", err)
	}
	env.SynthRules, err = mining.Mine(dataset.Records(env.Train), env.Schema,
		mining.Config{Slack: sc.MiningSlack, Coeffs: sc.MiningCoeffs, Fields: dataset.CoarseFields()})
	if err != nil {
		return nil, fmt.Errorf("experiments: mining synthesis rules: %w", err)
	}
	env.ManualRules, err = rules.ParseRuleSet(ManualRulesText, env.Schema)
	if err != nil {
		return nil, fmt.Errorf("experiments: parsing manual rules: %w", err)
	}
	env.Logf("experiments: mined %d imputation rules, %d synthesis rules", env.ImputeRules.Len(), env.SynthRules.Len())

	if err := env.loadOrTrain(); err != nil {
		return nil, err
	}
	return env, nil
}

// modelCfg derives the transformer configuration from the scale.
func (sc ScaleConfig) modelCfg(vocabSize int) nn.Config {
	return nn.Config{
		Vocab: vocabSize, Ctx: 48,
		Dim: sc.ModelDim, Heads: sc.ModelHeads, Layers: sc.ModelLayers,
	}
}

// cacheKey fingerprints everything that affects the trained weights.
func (sc ScaleConfig) cacheKey() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("v1|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		sc.Racks, sc.WindowsPerRack, sc.TrainRacks,
		sc.ModelDim, sc.ModelLayers, sc.ModelHeads, sc.Epochs, sc.Seed, 48)))
	return hex.EncodeToString(h[:8])
}

func (e *Env) loadOrTrain() error {
	sc := e.Scale
	var path string
	if sc.CacheDir != "" {
		path = filepath.Join(sc.CacheDir, "gpt2mini_"+sc.cacheKey()+".gob")
		if f, err := os.Open(path); err == nil {
			defer f.Close()
			m, err := nn.Load(f)
			if err == nil {
				e.Logf("experiments: loaded cached model %s", path)
				e.Model = m
				return nil
			}
			e.Logf("experiments: cache %s unreadable (%v), retraining", path, err)
		}
	}

	seqs, err := Corpus(e.Tok, e.Train)
	if err != nil {
		return err
	}
	m, err := nn.New(sc.modelCfg(e.Tok.Size()), sc.Seed)
	if err != nil {
		return err
	}
	e.Logf("experiments: training %d-param model on %d sequences for %d epochs",
		m.NumParams(), len(seqs), sc.Epochs)
	tc := nn.TrainConfig{Epochs: sc.Epochs, Seed: sc.Seed, LogEvery: 50}
	if !sc.Quiet {
		tc.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	if _, err := m.Train(seqs, tc); err != nil {
		return fmt.Errorf("experiments: training: %w", err)
	}
	e.Model = m

	if path != "" {
		if err := saveModel(m, path); err != nil {
			return fmt.Errorf("experiments: caching model: %w", err)
		}
		e.Logf("experiments: cached model at %s", path)
	}
	return nil
}

// saveModel writes m to path through a temp file in the same directory and a
// rename, so path never holds a partly written model: a run that is killed
// mid-write, or whose Close fails, leaves the previous file (or none) behind
// instead of a truncated gob that every later run silently retrains over.
func saveModel(m *nn.Model, path string) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op once renamed
	if err := errors.Join(m.Save(f), f.Chmod(0o644), f.Close()); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// Corpus tokenizes windows into BOS…EOS training sequences.
func Corpus(tok *vocab.Tokenizer, ws []dataset.Window) ([][]int, error) {
	seqs := make([][]int, 0, len(ws))
	for _, w := range ws {
		seq, err := tok.EncodeSeq(dataset.Format(w.Rec))
		if err != nil {
			return nil, err
		}
		seqs = append(seqs, seq)
	}
	return seqs, nil
}

// EngineFor builds a decoding engine over the trained model for the given
// rule set and mode.
func (e *Env) EngineFor(rs *rules.RuleSet, mode core.Mode) (*core.Engine, error) {
	slots, err := core.TelemetryGrammar(e.Schema, dataset.CoarseFields(), dataset.FineField)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(core.Config{
		LM: core.WrapNN(e.Model), Tok: e.Tok, Schema: e.Schema,
		Rules: rs, Slots: slots, Mode: mode,
		Temperature: e.Scale.Temperature,
	})
}

// TestRecordsN returns up to n test records (n ≤ 0 → ScaleConfig.TestN).
func (e *Env) TestRecordsN(n int) []rules.Record {
	if n <= 0 {
		n = e.Scale.TestN
	}
	if n > len(e.Test) {
		n = len(e.Test)
	}
	return dataset.Records(e.Test[:n])
}

// CoarseOf projects a record to its coarse fields (the imputation prompt).
func CoarseOf(rec rules.Record) rules.Record {
	out := rules.Record{}
	for _, f := range dataset.CoarseFields() {
		out[f] = append([]int64(nil), rec[f]...)
	}
	return out
}
