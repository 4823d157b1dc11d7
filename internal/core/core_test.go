package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rules"
	"repro/internal/vocab"
)

// --- Mock language models -------------------------------------------------

// uniformLM assigns equal logits to every token: a maximally clueless model
// that exercises the engine's correctness guarantees in isolation.
type uniformLM struct{ vocab int }

func (u uniformLM) VocabSize() int { return u.vocab }
func (u uniformLM) NewSession() Session {
	return &uniformSession{logits: make([]float32, u.vocab)}
}

type uniformSession struct {
	logits []float32
	n      int
}

func (s *uniformSession) Append(tok int) error { s.n++; return nil }
func (s *uniformSession) Logits() []float32    { return s.logits }

// scriptedLM strongly prefers emitting a fixed text (the characters after
// BOS), modeling a confident LM whose intent the engine should preserve
// whenever it is rule-compliant.
type scriptedLM struct {
	tok  *vocab.Tokenizer
	text string
}

func (s scriptedLM) VocabSize() int { return s.tok.Size() }
func (s scriptedLM) NewSession() Session {
	return &scriptedSession{lm: s, logits: make([]float32, s.tok.Size())}
}

type scriptedSession struct {
	lm     scriptedLM
	logits []float32
	chars  int // characters consumed (Appends excluding BOS)
}

func (s *scriptedSession) Append(tok int) error {
	if tok != vocab.BOS {
		s.chars++
	}
	return nil
}

func (s *scriptedSession) Logits() []float32 {
	for i := range s.logits {
		s.logits[i] = -30
	}
	if s.chars < len(s.lm.text) {
		s.logits[s.lm.tok.ID(s.lm.text[s.chars])] = 30
	} else {
		s.logits[vocab.EOS] = 30
	}
	return s.logits
}

// formatAwareLM mimics a trained model: it has internalized the record
// format (digits then the correct separator) but picks digit values
// uniformly — well-formed output, random values. This is what free sampling
// from a real trained LM looks like before rule knowledge.
type formatAwareLM struct {
	tok   *vocab.Tokenizer
	slots []Slot
}

func (f formatAwareLM) VocabSize() int { return f.tok.Size() }
func (f formatAwareLM) NewSession() Session {
	return &formatAwareSession{lm: f, logits: make([]float32, f.tok.Size())}
}

type formatAwareSession struct {
	lm      formatAwareLM
	logits  []float32
	slot    int // current grammar slot
	ndigits int // digits emitted in the current value
}

func (s *formatAwareSession) Append(tok int) error {
	if tok == vocab.BOS || !s.lm.tok.IsChar(tok) {
		return nil
	}
	c := s.lm.tok.Char(tok)
	if c >= '0' && c <= '9' {
		s.ndigits++
		return nil
	}
	// Any separator advances the slot.
	s.slot++
	s.ndigits = 0
	return nil
}

func (s *formatAwareSession) Logits() []float32 {
	for i := range s.logits {
		s.logits[i] = -20
	}
	if s.slot >= len(s.lm.slots) {
		s.logits[vocab.EOS] = 5
		return s.logits
	}
	for d := byte('0'); d <= '9'; d++ {
		s.logits[s.lm.tok.ID(d)] = 0
	}
	if s.ndigits >= 1 {
		// Prefer ending the value after 1-2 digits, via the correct
		// separator for the current slot.
		sep := s.lm.slots[s.slot].Sep
		s.logits[s.lm.tok.ID(sep)] = float32(s.ndigits) * 1.5
	}
	return s.logits
}

// --- Shared fixtures -------------------------------------------------------

func testSchema(t *testing.T) *rules.Schema {
	t.Helper()
	return rules.MustSchema(
		rules.Field{Name: "TotalIngress", Kind: rules.Scalar, Lo: 0, Hi: 300},
		rules.Field{Name: "Congestion", Kind: rules.Scalar, Lo: 0, Hi: 100},
		rules.Field{Name: "I", Kind: rules.Vector, Len: 5, Lo: 0, Hi: 60},
	)
}

const testRules = `
const BW = 60
const T  = 5
rule r1: forall t in 0..T-1: 0 <= I[t] and I[t] <= BW
rule r2: sum(I) == TotalIngress
rule r3: Congestion > 0 -> max(I) >= BW/2
`

func testGrammar(t *testing.T, schema *rules.Schema) []Slot {
	t.Helper()
	slots, err := TelemetryGrammar(schema, []string{"TotalIngress", "Congestion"}, "I")
	if err != nil {
		t.Fatal(err)
	}
	return slots
}

func testEngine(t *testing.T, lm LM, mode Mode) *Engine {
	t.Helper()
	schema := testSchema(t)
	rs, err := rules.ParseRuleSet(testRules, schema)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{
		LM: lm, Tok: vocab.Telemetry(), Schema: schema,
		Rules: rs, Slots: testGrammar(t, schema), Mode: mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// --- Tests ------------------------------------------------------------------

func TestTelemetryGrammar(t *testing.T) {
	schema := testSchema(t)
	slots := testGrammar(t, schema)
	if len(slots) != 7 {
		t.Fatalf("got %d slots, want 7", len(slots))
	}
	wantSeps := []byte{',', '|', ',', ',', ',', ',', '\n'}
	for i, s := range slots {
		if s.Sep != wantSeps[i] {
			t.Errorf("slot %d sep %q, want %q", i, string(s.Sep), string(wantSeps[i]))
		}
	}
	if _, err := TelemetryGrammar(schema, []string{"Nope"}, "I"); err == nil {
		t.Error("unknown coarse field accepted")
	}
	if _, err := TelemetryGrammar(schema, []string{"I"}, "I"); err == nil {
		t.Error("vector as coarse field accepted")
	}
	if _, err := TelemetryGrammar(schema, []string{"TotalIngress"}, "Congestion"); err == nil {
		t.Error("scalar as fine field accepted")
	}
}

func TestNewEngineValidation(t *testing.T) {
	schema := testSchema(t)
	tok := vocab.Telemetry()
	slots := testGrammar(t, schema)
	lm := uniformLM{vocab: tok.Size()}
	cases := []Config{
		{Tok: tok, Schema: schema, Slots: slots},                                            // no LM
		{LM: lm, Schema: schema, Slots: slots},                                              // no tokenizer
		{LM: lm, Tok: tok, Schema: schema},                                                  // no grammar
		{LM: uniformLM{vocab: 5}, Tok: tok, Schema: schema, Slots: slots},                   // vocab mismatch
		{LM: lm, Tok: tok, Schema: schema, Slots: []Slot{{Field: "X"}}},                     // unknown field
		{LM: lm, Tok: tok, Schema: schema, Slots: []Slot{{Field: "I", Index: 9, Sep: ','}}}, // bad index
		{LM: lm, Tok: tok, Schema: schema, Slots: []Slot{{Field: "Congestion", Sep: '#'}}},  // bad sep
	}
	for i, cfg := range cases {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

// TestLeJITGuaranteesCompliance is the headline property (paper Finding 1):
// even a clueless uniform model, guided by LeJIT, yields 100% compliance.
func TestLeJITGuaranteesCompliance(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	rng := rand.New(rand.NewSource(1))
	known := rules.Record{"TotalIngress": {100}, "Congestion": {8}}
	for trial := 0; trial < 25; trial++ {
		res, err := e.Impute(known, rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		vs, err := e.cfg.Rules.Violations(res.Rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) > 0 {
			t.Fatalf("trial %d: LeJIT output violates %v: %v", trial, vs, res.Rec)
		}
		// Spot-check the semantics, not just the checker.
		var sum, maxI int64
		for _, v := range res.Rec["I"] {
			sum += v
			if v > maxI {
				maxI = v
			}
			if v < 0 || v > 60 {
				t.Fatalf("trial %d: R1 violated: %v", trial, res.Rec["I"])
			}
		}
		if sum != 100 {
			t.Fatalf("trial %d: R2 violated: sum %d", trial, sum)
		}
		if maxI < 30 {
			t.Fatalf("trial %d: R3 violated: max %d", trial, maxI)
		}
	}
}

func TestLeJITUnconditionalGenerate(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		res, err := e.Generate(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		vs, err := e.cfg.Rules.Violations(res.Rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) > 0 {
			t.Fatalf("trial %d: violations %v in %v", trial, vs, res.Rec)
		}
		if res.Stats.Tokens == 0 || res.Stats.SolverChecks == 0 {
			t.Errorf("trial %d: suspicious stats %+v", trial, res.Stats)
		}
	}
}

// TestLeJITMinimallyInvasive: when the model's preferred output already
// complies, LeJIT must reproduce it verbatim (§3: "without overwriting
// decisions that would not have led to rule violations").
func TestLeJITMinimallyInvasive(t *testing.T) {
	tok := vocab.Telemetry()
	want := "100,8|20,15,25,39,1\n" // complies with R1-R3
	e := testEngine(t, scriptedLM{tok: tok, text: want}, LeJIT)
	rng := rand.New(rand.NewSource(3))
	res, err := e.Impute(rules.Record{"TotalIngress": {100}, "Congestion": {8}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rec["I"]
	wantI := []int64{20, 15, 25, 39, 1}
	for i := range wantI {
		if got[i] != wantI[i] {
			t.Fatalf("LeJIT altered a compliant output: got %v, want %v", got, wantI)
		}
	}
	// On a fully compliant path LeJIT may still prune tokens that would
	// have led to dead ends, but it must not force the model's hand except
	// where the rules leave a single option (here: the last value).
	if res.Stats.ForcedSteps > 2 {
		t.Errorf("too many rule-forced steps on a compliant path: %+v", res.Stats)
	}
}

// TestLeJITRedirectsInvalidIntent reproduces the paper's Fig 1 example: the
// model wants I=[20,15,25,70,8] (I3=70 breaches BW and the sum), and LeJIT
// must nudge it onto a compliant path instead.
func TestLeJITRedirectsInvalidIntent(t *testing.T) {
	tok := vocab.Telemetry()
	want := "100,8|20,15,25,70,8\n"
	e := testEngine(t, scriptedLM{tok: tok, text: want}, LeJIT)
	rng := rand.New(rand.NewSource(4))
	res, err := e.Impute(rules.Record{"TotalIngress": {100}, "Congestion": {8}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := e.cfg.Rules.Violations(res.Rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) > 0 {
		t.Fatalf("violations %v in %v", vs, res.Rec)
	}
	// The compliant prefix must be preserved.
	I := res.Rec["I"]
	if I[0] != 20 || I[1] != 15 || I[2] != 25 {
		t.Errorf("compliant prefix altered: %v", I)
	}
	// And the decode must have actually masked something.
	if res.Stats.MaskedSteps == 0 {
		t.Error("no masking recorded while redirecting an invalid intent")
	}
}

// TestLeJITForcesLastValue: with R2 active, once I0..I3 are fixed the last
// value is uniquely determined (paper Fig 1b step ⑤) — the uniform model has
// no freedom there.
func TestLeJITForcesLastValue(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	rng := rand.New(rand.NewSource(5))
	res, err := e.Impute(rules.Record{"TotalIngress": {100}, "Congestion": {8}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range res.Rec["I"][:4] {
		sum += v
	}
	if res.Rec["I"][4] != 100-sum {
		t.Errorf("last value %d, forced to %d", res.Rec["I"][4], 100-sum)
	}
}

func TestImputeInfeasiblePrompt(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	rng := rand.New(rand.NewSource(6))
	// TotalIngress 301 > 5·60: no compliant completion exists. (Schema Hi
	// is 300, so use 300 with an impossible congestion pairing instead:
	// TI=0 forces all I=0, but Congestion>0 needs max(I) ≥ 30.)
	_, err := e.Impute(rules.Record{"TotalIngress": {0}, "Congestion": {50}}, rng)
	if _, ok := err.(ErrInfeasible); !ok {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestImputeRejectsNonPrefixKnown(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	rng := rand.New(rand.NewSource(7))
	// Congestion without TotalIngress is not a grammar prefix.
	if _, err := e.Impute(rules.Record{"Congestion": {8}}, rng); err == nil {
		t.Error("non-prefix known set should be rejected")
	}
}

// TestOverlongKnownValueFails: a known field with more values than the
// schema gives it elements fails the decode with a plain error — on the
// guided path, in BeamImpute and in DiagnoseInfeasible alike, which render
// known values through one helper — instead of panicking inside the lane.
func TestOverlongKnownValueFails(t *testing.T) {
	e := testEngine(t, cloneableUniform{vocab: vocab.Telemetry().Size()}, LeJIT)
	known := rules.Record{"TotalIngress": {100, 5}, "Congestion": {0}}
	_, imputeErr := e.Impute(known, rand.New(rand.NewSource(1)))
	_, beamErr := e.BeamImpute(known, 2)
	_, diagErr := e.DiagnoseInfeasible(known)
	for name, err := range map[string]error{"Impute": imputeErr, "BeamImpute": beamErr, "DiagnoseInfeasible": diagErr} {
		var pe *PanicError
		if err == nil || errors.As(err, &pe) || !strings.Contains(err.Error(), "too many values") {
			t.Errorf("%s: err = %v, want a plain too-many-values error", name, err)
		}
	}
	// The engine's solver frame was popped: the next record decodes.
	if _, err := e.Impute(rules.Record{"TotalIngress": {100}, "Congestion": {0}}, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
}

func TestStructureOnlyModeEnforcesDomainsNotRules(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, StructureOnly)
	rng := rand.New(rand.NewSource(8))
	known := rules.Record{"TotalIngress": {100}, "Congestion": {8}}
	violatedSum := false
	for trial := 0; trial < 20; trial++ {
		res, err := e.Impute(known, rng)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, v := range res.Rec["I"] {
			if v < 0 || v > 60 {
				t.Fatalf("domain violated even in structure-only mode: %v", res.Rec["I"])
			}
			sum += v
		}
		if sum != 100 {
			violatedSum = true
		}
	}
	if !violatedSum {
		t.Error("structure-only decoding never violated R2 in 20 uniform trials (statistically implausible)")
	}
}

func TestVanillaViolatesOften(t *testing.T) {
	schema := testSchema(t)
	slots := testGrammar(t, schema)
	tok := vocab.Telemetry()
	e := testEngine(t, formatAwareLM{tok: tok, slots: slots}, LeJIT)
	rng := rand.New(rand.NewSource(9))
	known := rules.Record{"TotalIngress": {100}, "Congestion": {8}}
	violations := 0
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		res, err := e.Vanilla(known, rng)
		if err != nil {
			t.Fatalf("trial %d: format-aware model should parse: %v", trial, err)
		}
		vs, err := e.cfg.Rules.Violations(res.Rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) > 0 {
			violations++
		}
	}
	// Random values summing to exactly 100 are vanishingly unlikely.
	if violations < trials/2 {
		t.Errorf("free sampling violated rules in only %d/%d trials", violations, trials)
	}
}

func TestVanillaUnparseableModelErrors(t *testing.T) {
	// A uniform model emits structural chars at random; Vanilla must give
	// up after MaxRetries rather than loop or fabricate a record.
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	rng := rand.New(rand.NewSource(14))
	failures := 0
	for trial := 0; trial < 5; trial++ {
		if _, err := e.Vanilla(rules.Record{"TotalIngress": {100}, "Congestion": {8}}, rng); err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Error("uniform token soup parsed in every trial (implausible)")
	}
}

func TestRejectionEventuallyComplies(t *testing.T) {
	// Rules loose enough that a uniform sampler succeeds within the cap.
	schema := rules.MustSchema(
		rules.Field{Name: "A", Kind: rules.Scalar, Lo: 0, Hi: 9},
		rules.Field{Name: "B", Kind: rules.Vector, Len: 2, Lo: 0, Hi: 9},
	)
	rs, err := rules.ParseRuleSet("rule r: sum(B) >= A", schema)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := TelemetryGrammar(schema, []string{"A"}, "B")
	if err != nil {
		t.Fatal(err)
	}
	tok := vocab.Telemetry()
	e, err := NewEngine(Config{
		LM: formatAwareLM{tok: tok, slots: slots}, Tok: tok, Schema: schema,
		Rules: rs, Slots: slots, MaxAttempts: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	res, err := e.Rejection(rules.Record{"A": {5}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	vs, _ := rs.Violations(res.Rec)
	if len(vs) > 0 {
		t.Fatalf("rejection returned non-compliant record: %v", res.Rec)
	}
	if res.Stats.Attempts < 1 {
		t.Error("attempts not tracked")
	}
}

func TestPostHocRepairsToCompliance(t *testing.T) {
	tok := vocab.Telemetry()
	// The scripted model insists on the invalid Fig 1a output.
	want := "100,8|20,15,25,70,8\n"
	e := testEngine(t, scriptedLM{tok: tok, text: want}, LeJIT)
	rng := rand.New(rand.NewSource(11))
	res, err := e.PostHoc(rules.Record{"TotalIngress": {100}, "Congestion": {8}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Repaired {
		t.Error("Repaired flag not set for an invalid sample")
	}
	vs, err := e.cfg.Rules.Violations(res.Rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) > 0 {
		t.Fatalf("post-hoc output still violates %v: %v", vs, res.Rec)
	}
}

func TestPostHocLeavesCompliantAlone(t *testing.T) {
	tok := vocab.Telemetry()
	want := "100,8|20,15,25,39,1\n"
	e := testEngine(t, scriptedLM{tok: tok, text: want}, LeJIT)
	rng := rand.New(rand.NewSource(12))
	res, err := e.PostHoc(rules.Record{"TotalIngress": {100}, "Congestion": {8}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Repaired {
		t.Error("compliant sample was repaired")
	}
	wantI := []int64{20, 15, 25, 39, 1}
	for i, v := range wantI {
		if res.Rec["I"][i] != v {
			t.Fatalf("output altered: %v", res.Rec["I"])
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	c, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	rng1 := rand.New(rand.NewSource(13))
	rng2 := rand.New(rand.NewSource(13))
	known := rules.Record{"TotalIngress": {100}, "Congestion": {8}}
	r1, err := e.Impute(known, rng1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Impute(known, rng2)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same config → identical output (determinism).
	for i := range r1.Rec["I"] {
		if r1.Rec["I"][i] != r2.Rec["I"][i] {
			t.Fatalf("clone diverged: %v vs %v", r1.Rec["I"], r2.Rec["I"])
		}
	}
}

func TestParseBySlots(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	vals, err := e.parseBySlots("100,8|1,2,3,4,5\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{100, 8, 1, 2, 3, 4, 5}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("vals = %v", vals)
		}
	}
	bad := []string{
		"100,8|1,2,3,4,5",     // missing newline
		"100,8|1,2,3,4\n",     // short
		"100,8|1,2,3,4,5,6\n", // long (trailing)
		"100|8|1,2,3,4,5\n",   // wrong separator
		",8|1,2,3,4,5\n",      // empty value
		"100,8|1,2,3,4,5\nx",  // trailing garbage
	}
	for _, s := range bad {
		if _, err := e.parseBySlots(s, 0); err == nil {
			t.Errorf("parseBySlots(%q) should fail", s)
		}
	}
	// Mid-grammar parse (imputation suffix).
	vals, err = e.parseBySlots("1,2,3,4,5\n", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 5 || vals[4] != 5 {
		t.Fatalf("suffix vals = %v", vals)
	}
}

func TestGuidedDecodeIsSeedDeterministic(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	known := rules.Record{"TotalIngress": {120}, "Congestion": {0}}
	a, err := e.Impute(known, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Impute(known, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(fmtVals(a.Rec["I"]), ",") != strings.Join(fmtVals(b.Rec["I"]), ",") {
		t.Errorf("non-deterministic decode: %v vs %v", a.Rec["I"], b.Rec["I"])
	}
}

func fmtVals(vs []int64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = string(rune('0' + v%10))
	}
	return out
}
