package core_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/pack"
	"repro/internal/prefixcache"
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

// TestCloneInheritsFingerprint: a clone takes its parent's fingerprint
// instead of hashing the rule set again, which is sound only while that is
// what ruleFingerprint computes from the clone's own config. The Set*
// methods write config fields the fingerprint does not read, so it still is
// after both.
func TestCloneInheritsFingerprint(t *testing.T) {
	defs, _ := shippedRuleSets(t)
	for _, def := range defs {
		c, err := pack.Compile(def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		check := func(when string) {
			clone, err := c.Engine.Clone()
			if err != nil {
				t.Fatal(err)
			}
			want := core.RuleFingerprint(clone.Configuration())
			if got := clone.Fingerprint(); got != want || got != c.Engine.Fingerprint() {
				t.Errorf("%s %s: clone fingerprint %016x, parent %016x, recomputed %016x", def.Name, when, got, c.Engine.Fingerprint(), want)
			}
		}
		check("fresh")
		c.Engine.SetPrefixCache(prefixcache.New(1 << 20))
		c.Engine.SetSolverBudget(1000, time.Second)
		check("after SetPrefixCache and SetSolverBudget")
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

// TestBudgetNeverChangesARecord is the solver budget's metamorphic property:
// a node budget may fail a decode, but never change what it decodes. For
// every shipped rule set and a sweep of Config.MaxNodes, fixed (prompt, seed)
// pairs decoded solo and as one DecodeRequests batch each come back either
// as an error unwrapping to ErrBudget or as exactly the unbudgeted record.
// The sweep as a whole must show both outcomes, or it tested nothing.
func TestBudgetNeverChangesARecord(t *testing.T) {
	const n = 7
	defs, recs := shippedRuleSets(t)
	var budgeted, exact int
	for _, def := range defs {
		c, err := pack.Compile(def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		examples := def.Examples
		if len(examples) == 0 {
			examples = recs
		}
		reqs := make([]core.BatchRequest, n)
		for i := range reqs {
			s := int64(i)
			reqs[i].Seed = &s
			if i%3 != 0 {
				reqs[i].Prompt = def.PromptOf(examples[i*len(examples)/n])
			}
		}
		solo := func(e *core.Engine, req core.BatchRequest) (core.Result, error) {
			clone, err := e.Clone()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(*req.Seed))
			if req.Prompt == nil {
				return clone.GenerateCtx(context.Background(), rng)
			}
			return clone.ImputeCtx(context.Background(), req.Prompt, rng)
		}
		want := make([]rules.Record, n)
		for i, req := range reqs {
			res, err := solo(c.Engine, req)
			if err != nil {
				t.Fatalf("%s record %d unbudgeted: %v", def.Name, i, err)
			}
			want[i] = res.Rec
		}
		judge := func(how string, maxNodes uint64, i int, rec rules.Record, err error) {
			switch {
			case errors.Is(err, core.ErrBudget):
				budgeted++
			case err != nil:
				t.Errorf("%s MaxNodes %d record %d %s: %v, want ErrBudget or the unbudgeted record", def.Name, maxNodes, i, how, err)
			case !reflect.DeepEqual(rec, want[i]):
				t.Errorf("%s MaxNodes %d record %d %s: %v, unbudgeted %v", def.Name, maxNodes, i, how, rec, want[i])
			default:
				exact++
			}
		}
		for _, maxNodes := range []uint64{1, 4, 16, 64, 256, 1024, 4096} {
			cfg := c.Engine.Configuration()
			cfg.MaxNodes = maxNodes
			e, err := core.NewEngine(cfg)
			if err != nil {
				// The root engine's rules-only pre-check runs under the
				// budget too, and may only stop on it. The decodes still
				// run under it: on an engine built without the budget,
				// which SetSolverBudget then writes into its Config.
				if !errors.Is(err, core.ErrBudget) {
					t.Errorf("%s MaxNodes %d: NewEngine: %v, want ErrBudget", def.Name, maxNodes, err)
				}
				if e, err = c.Engine.Clone(); err != nil {
					t.Fatal(err)
				}
				e.SetSolverBudget(maxNodes, 0)
			}
			for i, req := range reqs {
				res, err := solo(e, req)
				judge("solo", maxNodes, i, res.Rec, err)
			}
			out, _ := e.DecodeRequests(context.Background(), reqs, 2, 0, nil)
			for i, r := range out {
				judge("batched", maxNodes, i, r.Res.Rec, r.Err)
			}
		}
	}
	t.Logf("%d decodes stopped on the budget, %d returned the unbudgeted record", budgeted, exact)
	if budgeted == 0 || exact == 0 {
		t.Errorf("the sweep shows %d budget stops and %d exact records; it must show both", budgeted, exact)
	}
}
