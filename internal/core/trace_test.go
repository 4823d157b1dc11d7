package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/rules"
	"repro/internal/vocab"
)

func TestTraceHookObservesEverySlot(t *testing.T) {
	schema := testSchema(t)
	rs, err := rules.ParseRuleSet(testRules, schema)
	if err != nil {
		t.Fatal(err)
	}
	var steps []TraceStep
	e, err := NewEngine(Config{
		LM: uniformLM{vocab: vocab.Telemetry().Size()}, Tok: vocab.Telemetry(),
		Schema: schema, Rules: rs, Slots: testGrammar(t, schema),
		TraceHook: func(s TraceStep) { steps = append(steps, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	res, err := e.Impute(rules.Record{"TotalIngress": {100}, "Congestion": {8}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != res.Stats.Tokens {
		t.Fatalf("%d trace steps for %d tokens", len(steps), res.Stats.Tokens)
	}
	// Every step's chosen token must be among its admissible set, and the
	// admissible set never exceeds the structural one.
	seen := map[string]bool{}
	for i, s := range steps {
		ok := false
		for _, id := range s.Admissible {
			if id == s.Chosen {
				ok = true
			}
		}
		if !ok {
			t.Errorf("step %d: chosen token %d not admissible %v", i, s.Chosen, s.Admissible)
		}
		if len(s.Admissible) > s.Structural {
			t.Errorf("step %d: admissible %d > structural %d", i, len(s.Admissible), s.Structural)
		}
		seen[s.Field] = true
	}
	if !seen["I"] {
		t.Error("trace never visited the fine field")
	}
	// Imputation starts after the coarse prompt — those fields are never
	// generated and must not appear.
	if seen["TotalIngress"] || seen["Congestion"] {
		t.Error("trace includes prompt fields")
	}
}

// failingLM's sessions error after a fixed number of appends — injected
// failure to verify the engine propagates model errors instead of masking
// them. only, when set, confines the failure to the session whose first
// tokens are these (BOS plus one request's prompt), so one lane of a batch
// fails whichever path decodes it; inner, when set, supplies the logits, so
// batch-mates have token-dependent output a mis-fed session would corrupt.
type failingLM struct {
	vocab int
	after int
	only  []int
	inner LM
}

func (f failingLM) VocabSize() int { return f.vocab }
func (f failingLM) NewSession() Session {
	s := &failingSession{lm: f, logits: make([]float32, f.vocab)}
	if f.inner != nil {
		s.inner = f.inner.NewSession()
	}
	return s
}

type failingSession struct {
	lm     failingLM
	logits []float32
	inner  Session
	seen   []int
}

var errInjected = errors.New("injected model failure")

func (s *failingSession) Append(tok int) error {
	s.seen = append(s.seen, tok)
	if len(s.seen) > s.lm.after && hasPrefix(s.seen, s.lm.only) {
		return errInjected
	}
	if s.inner != nil {
		return s.inner.Append(tok)
	}
	return nil
}

func hasPrefix(xs, prefix []int) bool {
	if len(xs) < len(prefix) {
		return false
	}
	for i, p := range prefix {
		if xs[i] != p {
			return false
		}
	}
	return true
}

func (s *failingSession) Logits() []float32 {
	if s.inner != nil {
		return s.inner.Logits()
	}
	return s.logits
}

func TestModelErrorPropagates(t *testing.T) {
	schema := testSchema(t)
	rs, err := rules.ParseRuleSet(testRules, schema)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{
		LM: failingLM{vocab: vocab.Telemetry().Size(), after: 10}, Tok: vocab.Telemetry(),
		Schema: schema, Rules: rs, Slots: testGrammar(t, schema),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	_, err = e.Impute(rules.Record{"TotalIngress": {100}, "Congestion": {8}}, rng)
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
}

// TestCountRuleGuidedDecoding drives the engine with a counting rule — the
// §5 "richer temporal constraints" extension — and verifies guided decoding
// respects it: at most one burst interval per window, conservation intact.
func TestCountRuleGuidedDecoding(t *testing.T) {
	schema := testSchema(t)
	rs, err := rules.ParseRuleSet(`
const BW = 60
rule conserve: sum(I) == TotalIngress
rule onepeak:  count(I >= 30) <= 1
rule cap:      max(I) <= BW
`, schema)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{
		LM: uniformLM{vocab: vocab.Telemetry().Size()}, Tok: vocab.Telemetry(),
		Schema: schema, Rules: rs, Slots: testGrammar(t, schema),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		res, err := e.Impute(rules.Record{"TotalIngress": {80}, "Congestion": {0}}, rng)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		bursts := 0
		for _, v := range res.Rec["I"] {
			sum += v
			if v >= 30 {
				bursts++
			}
		}
		if sum != 80 {
			t.Fatalf("trial %d: conservation broken: %v", trial, res.Rec["I"])
		}
		if bursts > 1 {
			t.Fatalf("trial %d: %d bursts, count rule allows 1: %v", trial, bursts, res.Rec["I"])
		}
	}
}
