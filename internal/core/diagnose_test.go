package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rules"
	"repro/internal/vocab"
)

func TestDiagnoseInfeasibleFindsCulprits(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	// TotalIngress=0 forces all I to 0 (r2), but Congestion=50 requires a
	// burst (r3): the minimal core is {r2, r3} — r1 is innocent.
	core, err := e.DiagnoseInfeasible(rules.Record{"TotalIngress": {0}, "Congestion": {50}})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(core)
	if len(core) != 2 || core[0] != "r2" || core[1] != "r3" {
		t.Errorf("core = %v, want [r2 r3]", core)
	}
}

func TestDiagnoseFeasiblePromptErrors(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	if _, err := e.DiagnoseInfeasible(rules.Record{"TotalIngress": {100}, "Congestion": {8}}); err == nil {
		t.Error("feasible prompt should not diagnose")
	}
}

func TestDiagnoseCoreIsActuallyUnsat(t *testing.T) {
	e := testEngine(t, uniformLM{vocab: vocab.Telemetry().Size()}, LeJIT)
	known := rules.Record{"TotalIngress": {0}, "Congestion": {50}}
	coreNames, err := e.DiagnoseInfeasible(known)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild an engine enforcing ONLY the core rules: the prompt must
	// still be infeasible (core soundness)...
	keep := map[string]bool{}
	for _, n := range coreNames {
		keep[n] = true
	}
	sub := e.Rules().Filter(func(r rules.Rule) bool { return keep[r.Name] })
	cfg := e.cfg
	cfg.Rules = sub
	eSub, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := eSub.Impute(known, rng); err == nil {
		t.Error("core rules alone should still be infeasible")
	}
	// ...and dropping any single core rule must make it feasible
	// (minimality).
	for _, drop := range coreNames {
		sub2 := e.Rules().Filter(func(r rules.Rule) bool { return keep[r.Name] && r.Name != drop })
		cfg := e.cfg
		cfg.Rules = sub2
		e2, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e2.Impute(known, rng); err != nil {
			t.Errorf("dropping %s should make the prompt feasible: %v", drop, err)
		}
	}
}
