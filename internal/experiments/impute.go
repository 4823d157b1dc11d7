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

// ImputeMethod is one imputation strategy under evaluation.
type ImputeMethod struct {
	Name string
	// Batch decodes all prompts as lanes of one core.DecodeBatch; every
	// engine-backed method sets it. Run, read only when Batch is nil,
	// imputes one record at a time: the serial-only methods — stateful
	// generators like Zoom2Net — set it instead.
	Run   func(known rules.Record, rng *rand.Rand) (rules.Record, error)
	Batch func(prompts []rules.Record, workers int, seed int64) []core.BatchResult
}

// batcher adapts an engine + decode method to the ImputeMethod.Batch shape.
func batcher(eng *core.Engine, method core.Method) func([]rules.Record, int, int64) []core.BatchResult {
	return func(prompts []rules.Record, workers int, seed int64) []core.BatchResult {
		return eng.DecodeBatch(prompts, workers, seed, method)
	}
}

// ImputeResult aggregates one method's imputation run (feeds Fig 3 and
// Fig 4).
type ImputeResult struct {
	Method    string
	Records   int // records attempted
	Failures  int // decode errors (malformed / infeasible / attempts exhausted)
	Succeeded int // records decoded; all rates below are over these

	// Rule compliance against the full mined set (Fig 3 left).
	PairViolationRate float64 // violated (rule, record) pairs
	RecViolationRate  float64 // records violating ≥1 rule

	// Accuracy vs ground truth (Fig 4 left).
	MAE         float64
	EMD         float64
	P99Err      float64
	AutocorrErr float64

	// Downstream burst analysis (Fig 4 right).
	Burst metrics.BurstStats

	// Runtime (Fig 3 right).
	Total     time.Duration
	PerRecord time.Duration
	Extrap30K time.Duration // extrapolation to the paper's 30K test points
}

// ImputeMethods constructs the evaluated methods in presentation order:
// the three GPT-2 baselines, the constrained-decoding strawman, the two
// LeJIT variants, Zoom2Net, and post-hoc SMT repair.
func (e *Env) ImputeMethods() ([]ImputeMethod, error) {
	engMined, err := e.EngineFor(e.ImputeRules, core.LeJIT)
	if err != nil {
		return nil, err
	}
	engManual, err := e.EngineFor(e.ManualRules, core.LeJIT)
	if err != nil {
		return nil, err
	}
	engStruct, err := e.EngineFor(e.ImputeRules, core.StructureOnly)
	if err != nil {
		return nil, err
	}

	z2n, err := baselines.NewZoom2Net(e.Schema, dataset.CoarseFields(), dataset.FineField,
		e.ManualRules, baselines.Z2NConfig{Seed: e.Scale.Seed})
	if err != nil {
		return nil, err
	}
	e.Logf("experiments: fitting Zoom2Net on %d windows", len(e.Train))
	if err := z2n.Fit(dataset.Records(e.Train)); err != nil {
		return nil, err
	}

	return []ImputeMethod{
		{Name: "Vanilla GPT-2", Batch: batcher(engMined, core.MethodFree)},
		{Name: "Rejection Sampling", Batch: batcher(engMined, core.MethodRejection)},
		{Name: "Post-hoc SMT Repair", Batch: batcher(engMined, core.MethodPostHoc)},
		{Name: "Constrained Decoding", Batch: batcher(engStruct, core.MethodGuided)},
		{Name: "Zoom2Net", Run: func(known rules.Record, _ *rand.Rand) (rules.Record, error) {
			return z2n.Impute(known)
		}},
		{Name: "LeJIT (manual rules)", Batch: batcher(engManual, core.MethodGuided)},
		{Name: "LeJIT", Batch: batcher(engMined, core.MethodGuided)},
	}, nil
}

// RunImputation evaluates every method on the test prompts and aggregates
// the Fig 3 / Fig 4 measurements. One pass feeds all four panels.
func RunImputation(env *Env) ([]ImputeResult, error) {
	methods, err := env.ImputeMethods()
	if err != nil {
		return nil, err
	}
	test := env.TestRecordsN(0)
	out := make([]ImputeResult, 0, len(methods))
	for _, m := range methods {
		env.Logf("experiments: imputation method %q on %d records", m.Name, len(test))
		res, err := runOneImputation(env, m, test)
		if err != nil {
			return nil, fmt.Errorf("method %s: %w", m.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func runOneImputation(env *Env, m ImputeMethod, test []rules.Record) (ImputeResult, error) {
	res := ImputeResult{Method: m.Name, Records: len(test)}

	var preds, truths [][]int64
	var outRecs []rules.Record
	start := time.Now()
	if m.Batch != nil {
		prompts := make([]rules.Record, len(test))
		for i, rec := range test {
			prompts[i] = CoarseOf(rec)
		}
		batch := m.Batch(prompts, env.Scale.Workers, env.Scale.Seed+1000)
		res.Total = time.Since(start)
		for i, b := range batch {
			if b.Err != nil {
				res.Failures++
				continue
			}
			outRecs = append(outRecs, b.Res.Rec)
			preds = append(preds, b.Res.Rec[dataset.FineField])
			truths = append(truths, test[i][dataset.FineField])
		}
	} else {
		rng := rand.New(rand.NewSource(env.Scale.Seed + 1000))
		for _, rec := range test {
			known := CoarseOf(rec)
			got, err := m.Run(known, rng)
			if err != nil {
				res.Failures++
				continue
			}
			outRecs = append(outRecs, got)
			preds = append(preds, got[dataset.FineField])
			truths = append(truths, rec[dataset.FineField])
		}
		res.Total = time.Since(start)
	}
	if len(test) > 0 {
		res.PerRecord = res.Total / time.Duration(len(test))
		res.Extrap30K = res.PerRecord * 30000
	}
	res.Succeeded = len(outRecs)
	if len(outRecs) == 0 {
		return res, nil
	}

	var err error
	res.PairViolationRate, res.RecViolationRate, err = env.ImputeRules.ViolationRate(outRecs)
	if err != nil {
		return res, err
	}
	res.MAE, err = metrics.MAE(preds, truths)
	if err != nil {
		return res, err
	}
	res.EMD = metrics.EMD(flattenF(preds), flattenF(truths))
	res.P99Err = metrics.P99Error(preds, truths)
	res.AutocorrErr = metrics.AutocorrError(preds, truths)
	res.Burst, err = metrics.BurstAnalysis(preds, truths, dataset.BW/2)
	if err != nil {
		return res, err
	}
	return res, nil
}

func flattenF(xs [][]int64) []float64 {
	var out []float64
	for _, s := range xs {
		for _, v := range s {
			out = append(out, float64(v))
		}
	}
	return out
}

// Fig3LeftTable renders rule-violation rates (paper Fig 3 left).
func Fig3LeftTable(rs []ImputeResult) Table {
	t := Table{
		Title:  "Fig 3 (left): rule violations in imputed time series (vs full mined rule set)",
		Header: []string{"method", "records", "failures", "pair-violation %", "record-violation %"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Method, itoa(r.Records), itoa(r.Failures),
			orDash(r.Succeeded > 0, pct(r.PairViolationRate)),
			orDash(r.Succeeded > 0, pct(r.RecViolationRate)),
		})
	}
	return t
}

// orDash renders "-" for metrics computed over an empty success set.
func orDash(ok bool, s string) string {
	if !ok {
		return "-"
	}
	return s
}

// Fig3RightTable renders runtime (paper Fig 3 right).
func Fig3RightTable(rs []ImputeResult) Table {
	t := Table{
		Title:  "Fig 3 (right): imputation runtime (measured, extrapolated to 30K samples)",
		Header: []string{"method", "per-record", "total (this run)", "extrapolated 30K"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Method, r.PerRecord.String(), r.Total.Round(time.Millisecond).String(),
			r.Extrap30K.Round(time.Second).String(),
		})
	}
	return t
}

// Fig4LeftTable renders imputation accuracy (paper Fig 4 left).
func Fig4LeftTable(rs []ImputeResult) Table {
	t := Table{
		Title:  "Fig 4 (left): imputation accuracy vs ground truth",
		Header: []string{"method", "MAE", "EMD", "p99 rel-err", "autocorr err"},
	}
	for _, r := range rs {
		ok := r.Succeeded > 0
		t.Rows = append(t.Rows, []string{
			r.Method, orDash(ok, f3(r.MAE)), orDash(ok, f3(r.EMD)),
			orDash(ok, f3(r.P99Err)), orDash(ok, f3(r.AutocorrErr)),
		})
	}
	return t
}

// Fig4RightTable renders downstream burst-analysis accuracy (paper Fig 4
// right).
func Fig4RightTable(rs []ImputeResult) Table {
	t := Table{
		Title:  "Fig 4 (right): downstream burst analysis (threshold BW/2)",
		Header: []string{"method", "burst-count err", "burst-volume err", "burst-position err"},
	}
	for _, r := range rs {
		ok := r.Succeeded > 0
		t.Rows = append(t.Rows, []string{
			r.Method, orDash(ok, f3(r.Burst.CountErr)),
			orDash(ok, f3(r.Burst.VolumeErr)), orDash(ok, f3(r.Burst.PositionErr)),
		})
	}
	return t
}
