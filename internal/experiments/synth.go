package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rules"
)

// SynthMethod is one synthetic-data generator under evaluation.
type SynthMethod struct {
	Name string
	// Batch draws all samples as lanes of one core.DecodeBatch; the
	// GPT-2-backed generators set it. Run, read only when Batch is nil,
	// draws one sample at a time: the fitted statistical generators set it
	// instead.
	Run   func(rng *rand.Rand) (rules.Record, error)
	Batch func(n, workers int, seed int64) []core.BatchResult
}

// genBatcher adapts an engine + decode method to SynthMethod.Batch:
// n nil prompts mean n unconditional generations.
func genBatcher(eng *core.Engine, method core.Method) func(int, int, int64) []core.BatchResult {
	return func(n, workers int, seed int64) []core.BatchResult {
		return eng.DecodeBatch(make([]rules.Record, n), workers, seed, method)
	}
}

// SynthResult aggregates one generator's run (feeds Fig 5).
type SynthResult struct {
	Method    string
	Samples   int
	Failures  int
	Succeeded int

	// Compliance against the mined synthesis rule set.
	PairViolationRate float64
	RecViolationRate  float64

	// Per-coarse-field Jensen–Shannon divergence vs held-out data.
	JSDPerField map[string]float64
	MeanJSD     float64

	Total     time.Duration
	PerSample time.Duration
}

// SynthMethods constructs the Fig 5 lineup: three GPT-2 variants (vanilla,
// rejection, LeJIT), the GPT-2-based REaLTabFormer substitute (the same
// trained transformer under structural decoding), and the four statistical
// SOTA generators fitted on the training split.
func (e *Env) SynthMethods() ([]SynthMethod, error) {
	engSynth, err := e.EngineFor(e.SynthRules, core.LeJIT)
	if err != nil {
		return nil, err
	}
	engStruct, err := e.EngineFor(e.SynthRules, core.StructureOnly)
	if err != nil {
		return nil, err
	}

	methods := []SynthMethod{
		{Name: "Vanilla GPT-2", Batch: genBatcher(engSynth, core.MethodFree)},
		{Name: "Rejection Sampling", Batch: genBatcher(engSynth, core.MethodRejection)},
		{Name: "REaLTabFormer", Batch: genBatcher(engStruct, core.MethodGuided)},
	}

	gens := []baselines.Generator{
		baselines.NewNetShare(e.Schema, 0),
		baselines.NewEWGANGP(e.Schema),
		baselines.NewCTGAN(e.Schema, 0, e.Scale.Seed),
		baselines.NewTVAE(e.Schema, 0),
	}
	train := dataset.Records(e.Train)
	for _, g := range gens {
		e.Logf("experiments: fitting %s on %d windows", g.Name(), len(train))
		if err := g.Fit(train); err != nil {
			return nil, fmt.Errorf("fitting %s: %w", g.Name(), err)
		}
		g := g
		methods = append(methods, SynthMethod{Name: g.Name(), Run: func(rng *rand.Rand) (rules.Record, error) {
			return g.Sample(rng)
		}})
	}

	methods = append(methods, SynthMethod{Name: "LeJIT", Batch: genBatcher(engSynth, core.MethodGuided)})
	return methods, nil
}

// RunSynthesis evaluates every generator (paper Fig 5): draw SampleN
// records each, compare per-field distributions to the held-out test split
// by JSD, and check compliance with the mined synthesis rules.
func RunSynthesis(env *Env) ([]SynthResult, error) {
	methods, err := env.SynthMethods()
	if err != nil {
		return nil, err
	}
	// Reference distributions from the full test split.
	ref := map[string][]float64{}
	for _, w := range env.Test {
		for _, f := range dataset.CoarseFields() {
			ref[f] = append(ref[f], float64(w.Rec[f][0]))
		}
	}

	out := make([]SynthResult, 0, len(methods))
	for _, m := range methods {
		env.Logf("experiments: synthesis method %q drawing %d samples", m.Name, env.Scale.SampleN)
		res, err := runOneSynthesis(env, m, ref)
		if err != nil {
			return nil, fmt.Errorf("method %s: %w", m.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func runOneSynthesis(env *Env, m SynthMethod, ref map[string][]float64) (SynthResult, error) {
	res := SynthResult{Method: m.Name, Samples: env.Scale.SampleN, JSDPerField: map[string]float64{}}

	var recs []rules.Record
	start := time.Now()
	if m.Batch != nil {
		batch := m.Batch(env.Scale.SampleN, env.Scale.Workers, env.Scale.Seed+2000)
		res.Total = time.Since(start)
		for _, b := range batch {
			if b.Err != nil {
				res.Failures++
				continue
			}
			recs = append(recs, b.Res.Rec)
		}
	} else {
		rng := rand.New(rand.NewSource(env.Scale.Seed + 2000))
		for i := 0; i < env.Scale.SampleN; i++ {
			rec, err := m.Run(rng)
			if err != nil {
				res.Failures++
				continue
			}
			recs = append(recs, rec)
		}
		res.Total = time.Since(start)
	}
	if env.Scale.SampleN > 0 {
		res.PerSample = res.Total / time.Duration(env.Scale.SampleN)
	}
	res.Succeeded = len(recs)
	if len(recs) == 0 {
		return res, nil
	}

	var err error
	res.PairViolationRate, res.RecViolationRate, err = env.SynthRules.ViolationRate(recs)
	if err != nil {
		return res, err
	}

	var sum float64
	for _, fname := range dataset.CoarseFields() {
		f, _ := env.Schema.Field(fname)
		var synth []float64
		for _, rec := range recs {
			synth = append(synth, float64(rec[fname][0]))
		}
		jsd := metrics.JSD(synth, ref[fname], 24, float64(f.Lo), float64(f.Hi))
		res.JSDPerField[fname] = jsd
		sum += jsd
	}
	res.MeanJSD = sum / float64(len(dataset.CoarseFields()))
	return res, nil
}

// Fig5Table renders the synthesis comparison (paper Fig 5).
func Fig5Table(rs []SynthResult) Table {
	t := Table{
		Title: "Fig 5: synthesis fidelity (JSD vs held-out data, lower is better) and rule compliance",
		Header: append([]string{"method"},
			append(dataset.CoarseFields(), "mean JSD", "pair-violation %", "rec-violation %", "failures")...),
	}
	for _, r := range rs {
		ok := r.Succeeded > 0
		row := []string{r.Method}
		for _, f := range dataset.CoarseFields() {
			row = append(row, orDash(ok, f3(r.JSDPerField[f])))
		}
		row = append(row, orDash(ok, f3(r.MeanJSD)),
			orDash(ok, pct(r.PairViolationRate)), orDash(ok, pct(r.RecViolationRate)), itoa(r.Failures))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig5RuntimeTable renders generation throughput alongside Fig 5.
func Fig5RuntimeTable(rs []SynthResult) Table {
	t := Table{
		Title:  "Fig 5 (runtime): synthesis throughput",
		Header: []string{"method", "per-sample", "total"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{r.Method, r.PerSample.String(), r.Total.Round(time.Millisecond).String()})
	}
	return t
}
