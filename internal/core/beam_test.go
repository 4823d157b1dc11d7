package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// cloneableUniform is uniformLM with session cloning for beam tests.
type cloneableUniform struct{ vocab int }

func (u cloneableUniform) VocabSize() int { return u.vocab }
func (u cloneableUniform) NewSession() Session {
	return &cloneableUniformSession{logits: make([]float32, u.vocab)}
}

type cloneableUniformSession struct {
	logits []float32
	n      int
}

func (s *cloneableUniformSession) Append(tok int) error { s.n++; return nil }
func (s *cloneableUniformSession) Logits() []float32    { return s.logits }
func (s *cloneableUniformSession) CloneSession() Session {
	return &cloneableUniformSession{logits: append([]float32(nil), s.logits...), n: s.n}
}

// cloneableScripted wraps scriptedLM with cloning.
type cloneableScripted struct{ scriptedLM }

func (s cloneableScripted) NewSession() Session {
	return &cloneableScriptedSession{scriptedSession{lm: s.scriptedLM, logits: make([]float32, s.tok.Size())}}
}

type cloneableScriptedSession struct{ scriptedSession }

func (s *cloneableScriptedSession) CloneSession() Session {
	cp := s.scriptedSession
	cp.logits = append([]float32(nil), s.logits...)
	return &cloneableScriptedSession{cp}
}

func TestBeamImputeCompliance(t *testing.T) {
	e := testEngine(t, cloneableUniform{vocab: vocab.Telemetry().Size()}, LeJIT)
	known := rules.Record{"TotalIngress": {100}, "Congestion": {8}}
	for _, width := range []int{1, 2, 4} {
		res, err := e.BeamImpute(known, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		vs, err := e.cfg.Rules.Violations(res.Rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) > 0 {
			t.Fatalf("width %d: violations %v in %v", width, vs, res.Rec)
		}
		if res.Stats.LogProb > 0 || math.IsInf(res.Stats.LogProb, 0) {
			t.Errorf("width %d: bad logprob %v", width, res.Stats.LogProb)
		}
	}
}

func TestBeamPrefersLikelyCompliantPath(t *testing.T) {
	// The scripted model wants the compliant sequence exactly; beam must
	// recover it verbatim with near-zero log-loss.
	want := "100,8|20,15,25,39,1\n"
	e := testEngine(t, cloneableScripted{scriptedLM{tok: vocab.Telemetry(), text: want}}, LeJIT)
	res, err := e.BeamImpute(rules.Record{"TotalIngress": {100}, "Congestion": {8}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantI := []int64{20, 15, 25, 39, 1}
	for i := range wantI {
		if res.Rec["I"][i] != wantI[i] {
			t.Fatalf("beam missed the model's compliant intent: %v", res.Rec["I"])
		}
	}
	if res.Stats.LogProb < -1 {
		t.Errorf("logprob %.3f for a near-deterministic path", res.Stats.LogProb)
	}
}

// TestBeamBeatsGreedyLogProb: with width > 1 the beam's sequence likelihood
// must be at least the width-1 (greedy) one — the defining beam property.
func TestBeamBeatsGreedyLogProb(t *testing.T) {
	// A trained tiny transformer gives non-trivial (non-flat, non-delta)
	// distributions where beam re-ranking can actually help.
	tok := vocab.Telemetry()
	m, err := nn.New(nn.Config{Vocab: tok.Size(), Ctx: 32, Dim: 16, Heads: 2, Layers: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	var seqs [][]int
	for i := 0; i < 120; i++ {
		a, b := int64(rng.Intn(30)), int64(rng.Intn(30))
		line := rules.Record{"TotalIngress": {a + b}, "Congestion": {0}, "I": {a, b, 0, 0, 0}}
		_ = line
		text := ""
		text += itoa64t(a+b) + ",0|" + itoa64t(a) + "," + itoa64t(b) + ",0,0,0\n"
		seq, err := tok.EncodeSeq(text)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	if _, err := m.Train(seqs, nn.TrainConfig{Epochs: 2, Seed: 1, Workers: 2}); err != nil {
		t.Fatal(err)
	}

	schema := testSchema(t)
	rs, err := rules.ParseRuleSet(testRules, schema)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{
		LM: WrapNN(m), Tok: tok, Schema: schema,
		Rules: rs, Slots: testGrammar(t, schema),
	})
	if err != nil {
		t.Fatal(err)
	}
	known := rules.Record{"TotalIngress": {37}, "Congestion": {0}}
	greedy, err := e.BeamImpute(known, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := e.BeamImpute(known, 6)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Stats.LogProb < greedy.Stats.LogProb-1e-9 {
		t.Errorf("beam-6 logprob %.4f worse than greedy %.4f", wide.Stats.LogProb, greedy.Stats.LogProb)
	}
	// Both must comply regardless.
	for _, r := range []Result{greedy, wide} {
		if vs, _ := rs.Violations(r.Rec); len(vs) > 0 {
			t.Fatalf("beam output violates %v: %v", vs, r.Rec)
		}
	}
}

// TestBeamReportsSolverChecks: BeamImpute runs on the engine's own solver,
// and the SolverChecks it reports are exactly the Checks that solver ran.
func TestBeamReportsSolverChecks(t *testing.T) {
	e := testEngine(t, cloneableUniform{vocab: vocab.Telemetry().Size()}, LeJIT)
	before := e.solver.Stats().Checks
	res, err := e.BeamImpute(rules.Record{"TotalIngress": {100}, "Congestion": {8}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ran := e.solver.Stats().Checks - before
	if ran == 0 || res.Stats.SolverChecks != ran {
		t.Errorf("BeamImpute reports %d solver checks; its solver ran %d", res.Stats.SolverChecks, ran)
	}
}

func TestBeamInfeasiblePrompt(t *testing.T) {
	e := testEngine(t, cloneableUniform{vocab: vocab.Telemetry().Size()}, LeJIT)
	_, err := e.BeamImpute(rules.Record{"TotalIngress": {0}, "Congestion": {50}}, 2)
	if _, ok := err.(ErrInfeasible); !ok {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestBeamRejectsNonCloneableWhenForking(t *testing.T) {
	// The plain uniformLM session cannot clone; width > 1 eventually forks.
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	_, err := e.BeamImpute(rules.Record{"TotalIngress": {100}, "Congestion": {8}}, 4)
	if err == nil {
		t.Error("non-cloneable LM with width 4 should error when beams fork")
	}
}

func TestBeamWidthValidation(t *testing.T) {
	e := testEngine(t, cloneableUniform{vocab: vocab.Telemetry().Size()}, LeJIT)
	if _, err := e.BeamImpute(rules.Record{"TotalIngress": {100}, "Congestion": {8}}, 0); err == nil {
		t.Error("width 0 should be rejected")
	}
}

func TestNNSessionCloneDiverges(t *testing.T) {
	tok := vocab.Telemetry()
	m, err := nn.New(nn.Config{Vocab: tok.Size(), Ctx: 16, Dim: 8, Heads: 2, Layers: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := m.NewSession()
	if err := a.Append(vocab.BOS); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(tok.ID('1')); err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	// Same state so far.
	la := append([]float32(nil), a.Logits()...)
	for i, v := range b.Logits() {
		if v != la[i] {
			t.Fatalf("clone logits differ at %d", i)
		}
	}
	// Diverge.
	if err := a.Append(tok.ID('2')); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(tok.ID('9')); err != nil {
		t.Fatal(err)
	}
	same := true
	for i, v := range b.Logits() {
		if v != a.Logits()[i] {
			same = false
			_ = i
			break
		}
	}
	if same {
		t.Error("diverged sessions produced identical logits (cache aliasing?)")
	}
	if a.Len() != 3 || b.Len() != 3 {
		t.Errorf("lengths %d/%d", a.Len(), b.Len())
	}
}

func itoa64t(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf []byte
	for v > 0 {
		buf = append([]byte{byte('0' + v%10)}, buf...)
		v /= 10
	}
	return string(buf)
}
