package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
)

// prepared caches one tiny environment across the package's tests (training
// even the tiny model is the dominant cost).
var prepared *Env

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	if prepared != nil {
		return prepared
	}
	env, err := Prepare(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	prepared = env
	return env
}

func TestPrepareTiny(t *testing.T) {
	env := tinyEnv(t)
	if env.Model == nil || env.Model.NumParams() == 0 {
		t.Fatal("no model")
	}
	if env.ImputeRules.Len() == 0 || env.SynthRules.Len() == 0 || env.ManualRules.Len() != 4 {
		t.Fatalf("rule sets: %d/%d/%d", env.ImputeRules.Len(), env.SynthRules.Len(), env.ManualRules.Len())
	}
	if len(env.Train) == 0 || len(env.Test) == 0 {
		t.Fatal("empty splits")
	}
	// Synthesis rules must reference only coarse fields.
	for _, r := range env.SynthRules.Rules {
		if strings.Contains(r.String(), "I[") {
			t.Errorf("synthesis rule touches fine field: %s", r)
		}
	}
}

func TestRunImputationTiny(t *testing.T) {
	env := tinyEnv(t)
	rs, err := RunImputation(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 7 {
		t.Fatalf("got %d methods, want 7", len(rs))
	}
	byName := map[string]ImputeResult{}
	for _, r := range rs {
		byName[r.Method] = r
		if r.Records != env.Scale.TestN {
			t.Errorf("%s: records %d, want %d", r.Method, r.Records, env.Scale.TestN)
		}
	}
	lj, ok := byName["LeJIT"]
	if !ok {
		t.Fatal("LeJIT missing")
	}
	// The headline guarantee: LeJIT never violates (over its successes).
	if lj.Succeeded > 0 && lj.PairViolationRate != 0 {
		t.Errorf("LeJIT violation rate %v, want 0", lj.PairViolationRate)
	}
	// Vanilla must violate more than LeJIT (on a weak tiny model, a lot).
	v := byName["Vanilla GPT-2"]
	if v.Succeeded > 0 && v.PairViolationRate <= lj.PairViolationRate {
		t.Errorf("vanilla %.4f not worse than LeJIT %.4f", v.PairViolationRate, lj.PairViolationRate)
	}
	// All four figure tables must render every method.
	for _, tab := range []Table{Fig3LeftTable(rs), Fig3RightTable(rs), Fig4LeftTable(rs), Fig4RightTable(rs)} {
		out := tab.Render()
		for _, r := range rs {
			if !strings.Contains(out, r.Method) {
				t.Errorf("table %q missing method %s", tab.Title, r.Method)
			}
		}
	}
}

func TestRunSynthesisTiny(t *testing.T) {
	env := tinyEnv(t)
	ss, err := RunSynthesis(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 8 {
		t.Fatalf("got %d methods, want 8", len(ss))
	}
	for _, s := range ss {
		if s.Method == "LeJIT" && s.Succeeded > 0 && s.PairViolationRate != 0 {
			t.Errorf("LeJIT synthesis violation rate %v", s.PairViolationRate)
		}
		if s.Succeeded > 0 {
			for _, f := range dataset.CoarseFields() {
				if _, ok := s.JSDPerField[f]; !ok {
					t.Errorf("%s: missing JSD for %s", s.Method, f)
				}
			}
		}
	}
	out := Fig5Table(ss).Render()
	if !strings.Contains(out, "LeJIT") || !strings.Contains(out, "NetShare") {
		t.Errorf("Fig5 table incomplete:\n%s", out)
	}
	_ = Fig5RuntimeTable(ss).Render()
}

func TestRuleSetSizeAblationTiny(t *testing.T) {
	env := tinyEnv(t)
	ab, err := RunRuleSetSizeAblation(env, []float64{0, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(ab) != 2 {
		t.Fatalf("got %d rows", len(ab))
	}
	if ab[1].RuleCount != env.ImputeRules.Len() {
		t.Errorf("full config enforces %d rules, want %d", ab[1].RuleCount, env.ImputeRules.Len())
	}
	// Full enforcement must achieve zero violations; none must do worse
	// than structure-only.
	if ab[1].PairViolationRate != 0 {
		t.Errorf("100%% rules but violation rate %v", ab[1].PairViolationRate)
	}
	if ab[0].PairViolationRate < ab[1].PairViolationRate {
		t.Errorf("0%% rules (%v) beat 100%% (%v)?", ab[0].PairViolationRate, ab[1].PairViolationRate)
	}
	_ = AblationTable("t", ab).Render()
}

// TestLockStepDecodeTiny pins the lock-step/per-record equivalence on the
// real trained tiny model: the same requests decoded through a shared
// BatchSession (workers=1, one group) must byte-match solo decodes.
func TestLockStepDecodeTiny(t *testing.T) {
	env := tinyEnv(t)
	eng, err := env.EngineFor(env.ImputeRules, core.LeJIT)
	if err != nil {
		t.Fatal(err)
	}
	test := env.TestRecordsN(6)
	reqs := make([]core.BatchRequest, len(test))
	for i, rec := range test {
		reqs[i].Prompt = CoarseOf(rec)
	}
	batched, err := eng.DecodeRequests(context.Background(), reqs, 1, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		solo, err := eng.ImputeCtx(context.Background(), reqs[i].Prompt, rand.New(rand.NewSource(core.MixSeed(99, i))))
		if err != nil {
			t.Fatalf("solo %d: %v", i, err)
		}
		if batched[i].Err != nil {
			t.Fatalf("batched %d: %v", i, batched[i].Err)
		}
		got := dataset.Format(batched[i].Res.Rec)
		want := dataset.Format(solo.Rec)
		if got != want {
			t.Errorf("record %d: lock-step %q != solo %q", i, got, want)
		}
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	env := tinyEnv(t)
	seqs, err := Corpus(env.Tok, env.Train[:5])
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range seqs {
		want, err := env.Tok.EncodeSeq(dataset.Format(env.Train[i].Rec))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(seq, want) {
			t.Errorf("sequence %d = %v, want the encoding of %q", i, seq, dataset.Format(env.Train[i].Rec))
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"x", "1"}, {"longer-cell", "2"}},
	}
	out := tab.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, divider, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Errorf("title missing")
	}
	// All data lines align to the same width grid.
	if len(lines[2]) < len("longer-cell") {
		t.Errorf("row not padded: %q", lines[2])
	}
}

func TestStructureOnlyFasterThanLeJIT(t *testing.T) {
	env := tinyEnv(t)
	engL, err := env.EngineFor(env.ImputeRules, core.LeJIT)
	if err != nil {
		t.Fatal(err)
	}
	engS, err := env.EngineFor(env.ImputeRules, core.StructureOnly)
	if err != nil {
		t.Fatal(err)
	}
	_ = engL
	_ = engS
	// Construction alone suffices here; timing comparisons live in
	// bench_test.go where they belong.
}

func TestDecodeStrategyAblationTiny(t *testing.T) {
	env := tinyEnv(t)
	ab, err := RunDecodeStrategyAblation(env, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ab) != 3 {
		t.Fatalf("got %d rows, want 3 (sampling, beam-1, beam-2)", len(ab))
	}
	for _, r := range ab {
		// Every strategy is rule-enforced: zero residual violations over
		// its successes.
		if r.Records-r.Failures > 0 && r.PairViolationRate != 0 {
			t.Errorf("%s: violation rate %v, want 0", r.Config, r.PairViolationRate)
		}
	}
	_ = AblationTable("decode", ab).Render()
}

// TestCommittedArtifactsLoad: every model cached under artifacts/ loads, and
// the default scale's key is among them with the default scale's shape — so
// `lejit-bench -scale default` finds its model instead of silently
// retraining over a file it cannot read.
func TestCommittedArtifactsLoad(t *testing.T) {
	paths, err := filepath.Glob("../../artifacts/gpt2mini_*.gob")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed model artifacts (err %v)", err)
	}
	sc := DefaultScale()
	defaultSeen := false
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := nn.Load(f)
		f.Close()
		isDefault := filepath.Base(p) == "gpt2mini_"+sc.cacheKey()+".gob"
		defaultSeen = defaultSeen || isDefault
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if want := sc.modelCfg(m.Cfg.Vocab); isDefault && m.Cfg != want {
			t.Errorf("%s: config %+v, want the default scale's %+v", p, m.Cfg, want)
		}
	}
	if !defaultSeen {
		t.Errorf("no artifact for the default scale (key %s)", sc.cacheKey())
	}
}

var retrain = flag.Bool("retrain", false, "TestCommittedArtifactsReproduce also retrains the default scale (≈ 20 s on 2 cores)")

// TestCommittedArtifactsReproduce: training is deterministic and independent
// of GOMAXPROCS, so retraining a scale at GOMAXPROCS 4 writes the committed
// artifact byte for byte — the tiny scale always, the default scale with
// -retrain (make verify, CI). A cached run and a retraining run of
// lejit-bench therefore decode the same model.
func TestCommittedArtifactsReproduce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	scales := []ScaleConfig{TinyScale()}
	if *retrain {
		scales = append(scales, DefaultScale())
	}
	for _, sc := range scales {
		sc.CacheDir, sc.Quiet = t.TempDir(), true
		if _, err := Prepare(sc); err != nil {
			t.Fatal(err)
		}
		name := "gpt2mini_" + sc.cacheKey() + ".gob"
		got, err := os.ReadFile(filepath.Join(sc.CacheDir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("../../artifacts", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("retrained %s (sha256 %x) differs from the committed artifact (sha256 %x)", name, sha256.Sum256(got), sha256.Sum256(want))
		}
	}
}

// TestSaveModelAtomic: saveModel leaves exactly the named file, loadable and
// world-readable, and no temp file beside it; overwriting an existing cache
// entry goes through the same rename.
func TestSaveModelAtomic(t *testing.T) {
	m, err := nn.New(TinyScale().modelCfg(16), 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cache") // saveModel creates it
	path := filepath.Join(dir, "gpt2mini_test.gob")
	for pass := 0; pass < 2; pass++ {
		if err := saveModel(m, path); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name() != filepath.Base(path) {
			t.Fatalf("pass %d: cache dir holds %v, want only %s", pass, ents, filepath.Base(path))
		}
		info, err := ents[0].Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().Perm() != 0o644 {
			t.Errorf("pass %d: mode %v, want 0644", pass, info.Mode().Perm())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nn.Load(f)
		f.Close()
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if got.NumParams() != m.NumParams() {
			t.Errorf("pass %d: loaded %d params, saved %d", pass, got.NumParams(), m.NumParams())
		}
	}
}
