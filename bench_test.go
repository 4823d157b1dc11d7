package repro

// One benchmark per figure in the paper's evaluation (§4, Figures 3–5) plus
// microbenches of every hot component: the SMT solver, the transformer, the
// guided decoder, the miner, and the baselines. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches operate at a small scale (the env below) so a full
// sweep completes in minutes; cmd/lejit-bench regenerates the figures at the
// committed scales and EXPERIMENTS.md records those results.

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/mining"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/smt"
	"repro/internal/vocab"
)

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

// benchEnv prepares (once) a small trained environment shared by all figure
// benches: 12 racks, a 1-layer model, mined rule sets.
func benchEnv(b testing.TB) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		sc := experiments.TinyScale()
		sc.CacheDir = "artifacts"
		envVal, envErr = experiments.Prepare(sc)
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

func benchEngine(b *testing.B, rs *rules.RuleSet, mode core.Mode) *core.Engine {
	b.Helper()
	eng, err := benchEnv(b).EngineFor(rs, mode)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// imputePrompts yields cyclic test prompts.
func imputePrompts(b testing.TB) []rules.Record {
	env := benchEnv(b)
	recs := env.TestRecordsN(0)
	prompts := make([]rules.Record, len(recs))
	for i, r := range recs {
		prompts[i] = experiments.CoarseOf(r)
	}
	return prompts
}

// --- Fig 3 (left): per-decoder record decode incl. compliance check -------

func benchImputeMethod(b *testing.B, run func(rules.Record, *rand.Rand) (core.Result, error)) {
	prompts := imputePrompts(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := run(prompts[i%len(prompts)], rng)
		if err != nil {
			// Rejection/vanilla may legitimately fail on hard prompts.
			continue
		}
	}
}

// BenchmarkFig3LeftViolations measures the full Fig 3 (left) pipeline — all
// seven methods over the test prompts with violation scoring — once per
// iteration.
func BenchmarkFig3LeftViolations(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunImputation(env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 3 (right): per-record runtime of each decoder ---------------------

func BenchmarkFig3RightLeJIT(b *testing.B) {
	eng := benchEngine(b, benchEnv(b).ImputeRules, core.LeJIT)
	benchImputeMethod(b, eng.Impute)
}

func BenchmarkFig3RightVanilla(b *testing.B) {
	eng := benchEngine(b, benchEnv(b).ImputeRules, core.LeJIT)
	benchImputeMethod(b, eng.Vanilla)
}

func BenchmarkFig3RightRejection(b *testing.B) {
	eng := benchEngine(b, benchEnv(b).ImputeRules, core.LeJIT)
	benchImputeMethod(b, eng.Rejection)
}

func BenchmarkFig3RightPostHoc(b *testing.B) {
	eng := benchEngine(b, benchEnv(b).ImputeRules, core.LeJIT)
	benchImputeMethod(b, eng.PostHoc)
}

func BenchmarkFig3RightLeJITManual(b *testing.B) {
	eng := benchEngine(b, benchEnv(b).ManualRules, core.LeJIT)
	benchImputeMethod(b, eng.Impute)
}

// --- Fig 4: imputation accuracy + burst analysis ---------------------------

// BenchmarkFig4LeftAccuracy measures the accuracy-metric computation over a
// decoded batch (MAE/EMD/p99/autocorrelation — the Fig 4 left columns).
func BenchmarkFig4LeftAccuracy(b *testing.B) {
	env := benchEnv(b)
	eng := benchEngine(b, env.ImputeRules, core.LeJIT)
	rng := rand.New(rand.NewSource(2))
	var preds, truths [][]int64
	for _, rec := range env.TestRecordsN(0) {
		res, err := eng.Impute(experiments.CoarseOf(rec), rng)
		if err != nil {
			continue
		}
		preds = append(preds, res.Rec[dataset.FineField])
		truths = append(truths, rec[dataset.FineField])
	}
	if len(preds) == 0 {
		b.Fatal("no decoded records")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.MAE(preds, truths); err != nil {
			b.Fatal(err)
		}
		_ = metrics.P99Error(preds, truths)
		_ = metrics.AutocorrError(preds, truths)
	}
}

// BenchmarkFig4RightBursts measures burst analysis over a decoded batch.
func BenchmarkFig4RightBursts(b *testing.B) {
	env := benchEnv(b)
	truths := make([][]int64, 0, env.Scale.TestN)
	for _, rec := range env.TestRecordsN(0) {
		truths = append(truths, rec[dataset.FineField])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.BurstAnalysis(truths, truths, dataset.BW/2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 5: synthesis ------------------------------------------------------

func BenchmarkFig5LeJITGenerate(b *testing.B) {
	eng := benchEngine(b, benchEnv(b).SynthRules, core.LeJIT)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Generate(rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Synthesis(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSynthesis(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Generators(b *testing.B) {
	env := benchEnv(b)
	train := dataset.Records(env.Train)
	gens := []baselines.Generator{
		baselines.NewNetShare(env.Schema, 0),
		baselines.NewEWGANGP(env.Schema),
		baselines.NewCTGAN(env.Schema, 0, 1),
		baselines.NewTVAE(env.Schema, 0),
	}
	for _, g := range gens {
		if err := g.Fit(train); err != nil {
			b.Fatal(err)
		}
		b.Run(g.Name(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < b.N; i++ {
				if _, err := g.Sample(rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benches -------------------------------------------------------

// BenchmarkLockStepDecode measures a full lock-step group decode (one
// BatchSession shared by `lanes` records) at several group sizes, a group of
// one included; compare ns/op across the sub-benches scaled by lane count.
// generate32 is the repository benchmark's offline-synth call: 32
// unconditional records under the synthesis rules in two lane groups.
func BenchmarkLockStepDecode(b *testing.B) {
	b.Run("generate32", func(b *testing.B) {
		eng := benchEngine(b, benchEnv(b).SynthRules, core.LeJIT)
		reqs := make([]core.BatchRequest, 32)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := eng.DecodeRequests(nil, reqs, 2, int64(i), nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range out {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	eng := benchEngine(b, benchEnv(b).ImputeRules, core.LeJIT)
	prompts := imputePrompts(b)
	for _, lanes := range []int{1, 4, 8} {
		b.Run(strconv.Itoa(lanes)+"lanes", func(b *testing.B) {
			reqs := make([]core.BatchRequest, lanes)
			for i := range reqs {
				reqs[i].Prompt = prompts[i%len(prompts)]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := eng.DecodeRequests(nil, reqs, 1, int64(i), nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range out {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

func BenchmarkAblationStructureOnly(b *testing.B) {
	eng := benchEngine(b, benchEnv(b).ImputeRules, core.StructureOnly)
	benchImputeMethod(b, eng.Impute)
}

// --- Component microbenches --------------------------------------------------

func BenchmarkSMTCheckPaperRules(b *testing.B) {
	schema := dataset.Schema()
	rs, err := rules.ParseRuleSet(experiments.ManualRulesText, schema)
	if err != nil {
		b.Fatal(err)
	}
	s := smt.NewSolver()
	bind := rules.Instantiate(s, schema)
	f, err := rs.CompileAll(bind)
	if err != nil {
		b.Fatal(err)
	}
	s.Assert(f)
	ti, _ := bind.Vars("TotalIngress")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.CheckWith(smt.Eq(smt.V(ti[0]), smt.C(int64(100+i%50))))
		if r.Status == smt.Unknown {
			b.Fatal("unknown")
		}
	}
}

func BenchmarkSMTCheckMinedRules(b *testing.B) {
	env := benchEnv(b)
	s := smt.NewSolver()
	bind := rules.Instantiate(s, env.Schema)
	f, err := env.ImputeRules.CompileAll(bind)
	if err != nil {
		b.Fatal(err)
	}
	s.Assert(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := s.Check(); r.Status == smt.Unknown {
			b.Fatal("unknown")
		}
	}
}

// oraclePattern is the solver traffic of one imputed record without the LM:
// a solver holding the mined rules, the fine-grained variables, the test
// prompts the rules admit (a test record may violate a mined rule), and pin,
// which asserts one prompt's five coarse fields.
func oraclePattern(tb testing.TB) (s *smt.Solver, fine []smt.Var, prompts []rules.Record, pin func(rules.Record)) {
	env := benchEnv(tb)
	s = smt.NewSolver()
	bind := rules.Instantiate(s, env.Schema)
	f, err := env.ImputeRules.CompileAll(bind)
	if err != nil {
		tb.Fatal(err)
	}
	s.Assert(f)
	fine, _ = bind.Vars(dataset.FineField)
	pin = func(rec rules.Record) {
		for _, name := range dataset.CoarseFields() {
			vs, _ := bind.Vars(name)
			s.Assert(smt.Eq(smt.V(vs[0]), smt.C(rec[name][0])))
		}
	}
	for _, rec := range imputePrompts(tb) {
		s.Push()
		pin(rec)
		if s.Check().Status == smt.Sat {
			prompts = append(prompts, rec)
		}
		s.Pop()
	}
	if len(prompts) == 0 {
		tb.Fatal("no feasible prompt")
	}
	return s, fine, prompts, pin
}

// BenchmarkSMTOraclePattern replays the decoder's solver traffic for one
// imputed record without the LM: the mined rules stay asserted, each
// iteration pushes a frame, pins a prompt's five coarse fields, and then per
// fine-grained slot reads the base bounds, probes the ten first-digit ranges
// and asserts a feasible value. Unlike BenchmarkSMTCheckMinedRules it works
// on a pinned stack, where most mined rows are constants or entailed bounds.
// `go test -bench SMTOraclePattern -cpuprofile cpu.out .` is the way to
// profile the solver as the serving path exercises it.
func BenchmarkSMTOraclePattern(b *testing.B) {
	s, fine, prompts, pin := oraclePattern(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push()
		pin(prompts[i%len(prompts)])
		for _, v := range fine {
			if _, _, ok := s.BaseBounds(v); !ok {
				b.Fatal("pinned stack infeasible")
			}
			val, found := int64(0), false
			for d := int64(0); d <= 9; d++ {
				r := s.CheckWith(smt.Ge(smt.V(v), smt.C(10*d)), smt.Le(smt.V(v), smt.C(10*d+9)))
				if r.Status == smt.Unknown {
					b.Fatal("unknown")
				}
				if r.Status == smt.Sat {
					// The last feasible range's witness: values differ per slot
					// and the sum coupling stays satisfiable.
					val, found = r.Model[v], true
				}
			}
			if !found {
				b.Fatal("no feasible value")
			}
			s.Assert(smt.Eq(smt.V(v), smt.C(val)))
		}
		s.Pop()
	}
}

func BenchmarkSMTFeasibleRange(b *testing.B) {
	s := smt.NewSolver()
	var sum smt.LinExpr
	var vars []smt.Var
	for i := 0; i < 5; i++ {
		v := s.NewVar("I", 0, 60)
		vars = append(vars, v)
		sum = sum.Add(smt.V(v))
	}
	s.Assert(smt.Eq(sum, smt.C(100)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, st := s.FeasibleRange(smt.V(vars[i%5])); st != smt.Sat {
			b.Fatal(st)
		}
	}
}

func BenchmarkLMSessionStep(b *testing.B) {
	env := benchEnv(b)
	sess := env.Model.NewSession()
	if err := sess.Append(vocab.BOS); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sess.Len() >= env.Model.Cfg.Ctx {
			b.StopTimer()
			sess = env.Model.NewSession()
			if err := sess.Append(vocab.BOS); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := sess.Append(vocab.FirstChar); err != nil {
			b.Fatal(err)
		}
		_ = sess.Logits()
	}
}

func BenchmarkLMTrainStep(b *testing.B) {
	tok := vocab.Telemetry()
	m, err := nn.New(nn.Config{Vocab: tok.Size(), Ctx: 48, Dim: 32, Heads: 2, Layers: 1}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ws := dataset.Generate(dataset.Config{Racks: 1, WindowsPerRack: 16, Seed: 1})
	seqs, err := experiments.Corpus(tok, ws)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Train(seqs, nn.TrainConfig{Epochs: 1, Batch: 16, Seed: int64(i), Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuleMining(b *testing.B) {
	ws := dataset.Generate(dataset.Config{Racks: 8, WindowsPerRack: 60, Seed: 1})
	recs := dataset.Records(ws)
	schema := dataset.Schema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.Mine(recs, schema, mining.Config{Slack: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuleEval(b *testing.B) {
	env := benchEnv(b)
	rec := env.TestRecordsN(1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.ImputeRules.Violations(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBeamImpute4(b *testing.B) {
	eng := benchEngine(b, benchEnv(b).ImputeRules, core.LeJIT)
	prompts := imputePrompts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.BeamImpute(prompts[i%len(prompts)], 4); err != nil {
			if _, ok := err.(core.ErrInfeasible); !ok {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDiagnoseInfeasible(b *testing.B) {
	eng := benchEngine(b, benchEnv(b).ManualRules, core.LeJIT)
	known := rules.Record{"TotalIngress": {0}, "Congestion": {50}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.DiagnoseInfeasible(known); err != nil {
			b.Fatal(err)
		}
	}
}
