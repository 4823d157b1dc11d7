package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/pack"
	"repro/internal/rules"
)

// shippedRuleSets returns the telemetry pack under the benchmark's impute and
// synthesis rules (mined from its tiny-scale corpus) and the other two
// shipped packs, each with a uniform LM, plus the telemetry training records
// the impute prompts are drawn from.
func shippedRuleSets(t *testing.T) ([]pack.Definition, []rules.Record) {
	t.Helper()
	ws := dataset.Generate(dataset.Config{Racks: 12, WindowsPerRack: 30, Seed: 1})
	train, _ := dataset.Split(ws, 10, 2)
	recs := dataset.Records(train)
	mine := func(fields []string) string {
		rs, err := mining.Mine(recs, dataset.Schema(), mining.Config{Slack: 2, Coeffs: []int64{1, 2, 3}, Fields: fields})
		if err != nil {
			t.Fatal(err)
		}
		return rs.String()
	}
	return []pack.Definition{
		pack.TelemetryDefinition(nil, mine(nil), 0.9, nil),
		pack.TelemetryDefinition(nil, mine(dataset.CoarseFields()), 0.9, nil),
		pack.RouterCfgDefinition(nil),
		pack.FinComplianceDefinition(nil),
	}, recs
}

// TestSharedRulesModelMatchesLaneCheck gates the shared rules-only witness:
// for the telemetry impute and synthesis rules and each shipped pack, the
// feasibility Check an empty-prompt lane used to run on a clone — fresh, and
// again after the clone has decoded records — returns exactly the model the
// root engine shares. Tokens could not move if it did not (every oracle
// answer is exact), but per-record solver counters would.
func TestSharedRulesModelMatchesLaneCheck(t *testing.T) {
	defs, _ := shippedRuleSets(t)
	for _, def := range defs {
		c, err := pack.Compile(def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		shared := c.Engine.SharedRulesModel()
		if shared == nil {
			t.Fatalf("%s: the root engine shares no rules-only model", def.Name)
		}
		clone, err := c.Engine.Clone()
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			r := clone.EmptyPromptCheck()
			got := make([]int64, len(r.Model))
			for v, x := range r.Model {
				got[v] = x
			}
			if !reflect.DeepEqual(got, shared) {
				t.Errorf("%s round %d: a clone's empty-prompt Check found %v, the shared model is %v", def.Name, round, got, shared)
			}
			for i := int64(0); i < 2; i++ {
				if _, err := clone.Generate(rand.New(rand.NewSource(i))); err != nil {
					t.Fatalf("%s: %v", def.Name, err)
				}
			}
		}
	}
}

// TestValidateFastPathShippedPacks cross-checks every fast-path answer —
// interval reasoning and model repair — against the solver on prompted and
// unprompted decodes of each shipped rule set: a single disagreement is a
// soundness bug.
func TestValidateFastPathShippedPacks(t *testing.T) {
	defs, recs := shippedRuleSets(t)
	for _, def := range defs {
		c, err := pack.Compile(def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		cfg := c.Engine.Configuration()
		cfg.ValidateFastPath = true
		e, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		examples := def.Examples
		if len(examples) == 0 {
			examples = recs
		}
		var reqs []core.BatchRequest
		for i := 0; i < 24; i++ {
			s := int64(i)
			req := core.BatchRequest{Seed: &s}
			if i%3 != 0 {
				req.Prompt = def.PromptOf(examples[i*len(examples)/24])
			}
			reqs = append(reqs, req)
		}
		out, err := e.DecodeRequests(context.Background(), reqs, 1, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		var probes, fast int
		for i, r := range out {
			if r.Err != nil {
				t.Fatalf("%s record %d: %v", def.Name, i, r.Err)
			}
			if n := r.Res.Stats.FastPathMismatches; n != 0 {
				t.Errorf("%s record %d: %d fast-path answers disagreed with the solver", def.Name, i, n)
			}
			probes += int(r.Res.Stats.OracleProbes)
			fast += int(r.Res.Stats.OracleFastPath)
		}
		t.Logf("%s: %d answers validated, %d solver probes", def.Name, fast, probes)
	}
}
