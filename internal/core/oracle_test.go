package core

import (
	"math/rand"
	"testing"

	"repro/internal/rules"
	"repro/internal/vocab"
)

// TestIntervalFastPathStats pins the probe accounting: every query resolves
// as exactly one of fast path or solver probe, and on this workload the
// fast path carries the bulk of them.
func TestIntervalFastPathStats(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
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
}

// TestModelPatchRepair pins the model-patching fast path on the workload it
// was built for: a sum-coupled (disjunction-tainted) series slot, where
// per-digit probes ask for exact values away from the current model's
// assignment. Patching plus bounded repair must resolve the bulk of those
// without solver probes. (Whether those answers are right is
// TestMaskMatchesEnumeration's and TestShippedPackMasksMatchSolver's
// question.)
func TestModelPatchRepair(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	res, err := e.Impute(rules.Record{"TotalIngress": {150}, "Congestion": {20}},
		rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.OracleProbes*4 > st.OracleQueries {
		t.Errorf("solver probes %d > quarter of %d queries: patching ineffective",
			st.OracleProbes, st.OracleQueries)
	}
}
