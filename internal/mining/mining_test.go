package mining

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rules"
)

func corpus(t *testing.T, racks, perRack int) ([]rules.Record, *rules.Schema) {
	t.Helper()
	ws := dataset.Generate(dataset.Config{Racks: racks, WindowsPerRack: perRack, Seed: 21})
	return dataset.Records(ws), dataset.Schema()
}

func TestMineProducesConsistentRules(t *testing.T) {
	recs, schema := corpus(t, 10, 100)
	rs, err := Mine(recs, schema, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() < 50 {
		t.Errorf("mined only %d rules; expected a NetNomos-scale set", rs.Len())
	}
	// Consistency is asserted inside Mine, but double-check independently.
	for i, rec := range recs {
		vs, err := rs.Violations(rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) > 0 {
			t.Fatalf("record %d violates mined rules %v", i, vs)
		}
	}
}

func TestMineFindsConservation(t *testing.T) {
	recs, schema := corpus(t, 8, 80)
	rs, err := Mine(recs, schema, Config{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rs.Rules {
		if strings.HasPrefix(r.Name, "conserve_sum_I_TotalIngress") {
			found = true
		}
	}
	if !found {
		t.Errorf("miner missed the R2 conservation rule; rules:\n%s", ruleNames(rs))
	}
}

func TestMineFindsBurstImplication(t *testing.T) {
	recs, schema := corpus(t, 10, 150)
	rs, err := Mine(recs, schema, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// R3: Congestion > 0 -> max(I) >= BW/2 holds by construction in the
	// simulator; the miner must discover an impmax rule for it with a
	// threshold of at least BW/2.
	found := false
	for _, r := range rs.Rules {
		if strings.HasPrefix(r.Name, "impmax_Congestion_gt0_I") {
			found = true
			body := r.String()
			if !strings.Contains(body, "max(I) >= ") {
				t.Errorf("unexpected impmax body: %s", body)
			}
		}
	}
	if !found {
		t.Errorf("miner missed the R3-class burst implication; rules:\n%s", ruleNames(rs))
	}
}

func TestMineFieldFilter(t *testing.T) {
	recs, schema := corpus(t, 8, 80)
	rs, err := Mine(recs, schema, Config{Fields: dataset.CoarseFields()})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.Rules {
		if strings.Contains(r.String(), "I[") || strings.Contains(r.String(), "(I)") {
			t.Errorf("coarse-only mining produced a fine-grained rule: %s", r)
		}
	}
	if rs.Len() < 20 {
		t.Errorf("coarse-only set has only %d rules", rs.Len())
	}
}

func TestMineSlackWidensBounds(t *testing.T) {
	recs, schema := corpus(t, 6, 60)
	tight, err := Mine(recs, schema, Config{})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Mine(recs, schema, Config{Slack: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Slack can only prune (vacuity) or keep rules, never tighten; the
	// loose set must accept everything the tight set accepts.
	for _, rec := range recs {
		vs, err := loose.Violations(rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) > 0 {
			t.Fatalf("slack rules violated on training data: %v", vs)
		}
	}
	if loose.Len() > tight.Len() {
		t.Errorf("slack increased rule count %d -> %d (vacuity pruning should only shrink)", tight.Len(), loose.Len())
	}
}

func TestMineClassToggles(t *testing.T) {
	recs, schema := corpus(t, 6, 60)
	all, err := Mine(recs, schema, Config{})
	if err != nil {
		t.Fatal(err)
	}
	onlyBounds, err := Mine(recs, schema, Config{
		NoPairwise: true, NoAggregates: true, NoSums: true, NoSmoothness: true, NoImplications: true, NoCounts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if onlyBounds.Len() >= all.Len() {
		t.Errorf("bounds-only (%d) should be smaller than full set (%d)", onlyBounds.Len(), all.Len())
	}
	for _, r := range onlyBounds.Rules {
		if !strings.HasPrefix(r.Name, "bound_") {
			t.Errorf("unexpected rule class: %s", r.Name)
		}
	}
}

func TestMineEmptyCorpus(t *testing.T) {
	_, schema := corpus(t, 2, 10)
	if _, err := Mine(nil, schema, Config{}); err == nil {
		t.Error("empty corpus should error")
	}
}

func TestMineUnknownFieldFilter(t *testing.T) {
	recs, schema := corpus(t, 2, 10)
	if _, err := Mine(recs, schema, Config{Fields: []string{"DoesNotExist"}}); err == nil {
		t.Error("filter matching no fields should error")
	}
}

// TestMinedRulesGeneralize checks that rules mined on train racks mostly
// hold on unseen test racks — mined hard rules encode physics, not noise.
// Both rates are gated: the share of (rule, record) pairs violated, and the
// share of held-out records that violate at least one rule, which is the
// share of real data the enforced rules could never let LeJIT emit (1.50 %
// of these 600 records at seed 77).
func TestMinedRulesGeneralize(t *testing.T) {
	ws := dataset.Generate(dataset.Config{Racks: 30, WindowsPerRack: 120, Seed: 77})
	train, test := dataset.Split(ws, 25, 5)
	rs, err := Mine(dataset.Records(train), dataset.Schema(), Config{Slack: 3})
	if err != nil {
		t.Fatal(err)
	}
	pair, record, err := rs.ViolationRate(dataset.Records(test))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("held-out violation rates: %.3f%% of pairs, %.2f%% of records", pair*100, record*100)
	if pair > 0.01 {
		t.Errorf("mined rules violated on %.2f%% of test (rule,record) pairs; want < 1%%", pair*100)
	}
	if record >= 0.03 {
		t.Errorf("%.2f%% of test records violate a mined rule; want < 3%%", record*100)
	}
}

// TestMinedRuleSetCompiles ensures every mined rule lowers to SMT.
func TestMinedRuleSetCompiles(t *testing.T) {
	recs, schema := corpus(t, 8, 80)
	rs, err := Mine(recs, schema, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, b := newSolverBinding(schema)
	_ = s
	if _, err := rs.CompileAll(b); err != nil {
		t.Fatalf("mined rules failed to compile: %v", err)
	}
}

func ruleNames(rs *rules.RuleSet) string {
	var names []string
	for _, r := range rs.Rules {
		names = append(names, r.Name)
	}
	return strings.Join(names, "\n")
}

func TestMineFindsCountRules(t *testing.T) {
	recs, schema := corpus(t, 10, 150)
	rs, err := Mine(recs, schema, Config{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rs.Rules {
		if strings.HasPrefix(r.Name, "count_I_ge") {
			found = true
			if !strings.Contains(r.String(), "count(I >= ") {
				t.Errorf("unexpected count body: %s", r.String())
			}
		}
	}
	if !found {
		t.Errorf("miner missed burst-count rules; rules:\n%s", ruleNames(rs))
	}
}
