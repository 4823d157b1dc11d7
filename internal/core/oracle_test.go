package core

import (
	"math/rand"
	"testing"

	"repro/internal/rules"
	"repro/internal/vocab"
)

func fastPathEngine(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	schema := testSchema(t)
	rs, err := rules.ParseRuleSet(testRules, schema)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		LM: uniformLM{vocab: vocab.Telemetry().Size()}, Tok: vocab.Telemetry(),
		Schema: schema, Rules: rs, Slots: testGrammar(t, schema), Mode: LeJIT,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestIntervalFastPathEquivalence is the PR's headline soundness contract:
// the interval fast path must not change a single decoded byte relative to
// probing the solver for everything, across prompts, seeds, and worker
// counts.
func TestIntervalFastPathEquivalence(t *testing.T) {
	fast := fastPathEngine(t, nil)
	slow := fastPathEngine(t, func(c *Config) { c.NoIntervalFastPath = true })
	prompts := testPrompts(16)

	for _, workers := range []int{1, 3} {
		outFast, err := fast.DecodeBatch(prompts, workers, 42, MethodGuided)
		if err != nil {
			t.Fatal(err)
		}
		outSlow, err := slow.DecodeBatch(prompts, workers, 42, MethodGuided)
		if err != nil {
			t.Fatal(err)
		}
		for i := range prompts {
			if outFast[i].Err != nil || outSlow[i].Err != nil {
				t.Fatalf("record %d: fast err=%v slow err=%v", i, outFast[i].Err, outSlow[i].Err)
			}
			got := formatRec(t, fast, outFast[i].Res.Rec)
			want := formatRec(t, slow, outSlow[i].Res.Rec)
			if got != want {
				t.Errorf("workers=%d record %d: fast %q != slow %q", workers, i, got, want)
			}
		}
	}
}

// TestIntervalFastPathStats pins the probe accounting: every query resolves
// as exactly one of fast path or solver probe, and on this workload the
// fast path carries the bulk of them.
func TestIntervalFastPathStats(t *testing.T) {
	e := fastPathEngine(t, nil)
	res, err := e.Impute(rules.Record{"TotalIngress": {120}, "Congestion": {10}}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.OracleQueries == 0 {
		t.Fatal("no oracle queries recorded")
	}
	if st.OracleFastPath+st.OracleProbes != st.OracleQueries {
		t.Errorf("fastpath %d + probes %d != queries %d",
			st.OracleFastPath, st.OracleProbes, st.OracleQueries)
	}
	if st.OracleFastPath == 0 {
		t.Error("fast path answered zero probes")
	}
	if st.OracleProbes >= st.OracleQueries/2 {
		t.Errorf("solver probes %d ≥ half of %d queries: fast path ineffective",
			st.OracleProbes, st.OracleQueries)
	}
	if st.FastPathMismatches != 0 {
		t.Errorf("%d fast-path mismatches without validation enabled?", st.FastPathMismatches)
	}
}

// TestValidateFastPath cross-checks every locally answered probe against the
// solver on real decodes; a single disagreement is a soundness bug in the
// interval/convexity reasoning.
func TestValidateFastPath(t *testing.T) {
	e := fastPathEngine(t, func(c *Config) { c.ValidateFastPath = true })
	for _, prompt := range testPrompts(8) {
		res, err := e.Impute(prompt, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.FastPathMismatches != 0 {
			t.Fatalf("prompt %v: %d fast-path answers disagreed with the solver",
				prompt, res.Stats.FastPathMismatches)
		}
	}
}

// TestModelPatchRepair pins the model-patching fast path on the workload it
// was built for: a sum-coupled (disjunction-tainted) series slot, where
// per-digit probes ask for exact values away from the current model's
// assignment. Patching plus bounded repair must resolve the bulk of those
// without solver probes, and — under ValidateFastPath — every patched answer
// must agree with the solver.
func TestModelPatchRepair(t *testing.T) {
	e := fastPathEngine(t, func(c *Config) { c.ValidateFastPath = true })
	res, err := e.Impute(rules.Record{"TotalIngress": {150}, "Congestion": {20}},
		rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.FastPathMismatches != 0 {
		t.Fatalf("%d patched answers disagreed with the solver", st.FastPathMismatches)
	}
	if st.OracleProbes*4 > st.OracleQueries {
		t.Errorf("solver probes %d > quarter of %d queries: patching ineffective",
			st.OracleProbes, st.OracleQueries)
	}
}

// TestFastPathSolverSavings quantifies the point of the feature: the fast
// path must cut the solver checks of a decode, not just relabel them.
func TestFastPathSolverSavings(t *testing.T) {
	prompt := rules.Record{"TotalIngress": {150}, "Congestion": {20}}
	fast := fastPathEngine(t, nil)
	slow := fastPathEngine(t, func(c *Config) { c.NoIntervalFastPath = true })
	resFast, err := fast.Impute(prompt, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	resSlow, err := slow.Impute(prompt, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if resFast.Stats.SolverChecks*2 > resSlow.Stats.SolverChecks {
		t.Errorf("fast path checks %d not < half of %d",
			resFast.Stats.SolverChecks, resSlow.Stats.SolverChecks)
	}
}
