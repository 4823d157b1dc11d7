package repro

import (
	"testing"

	"repro/internal/race"
	"repro/internal/smt"
)

// modelSink keeps the reference map of TestSMTCheckAllocs alive.
var modelSink map[smt.Var]int64

// TestSMTCheckAllocs is the solver's allocation gate, on the stacks of
// BenchmarkSMTOraclePattern: a warm CheckWith allocates nothing when it
// answers Unsat, and when it answers Sat no more than building the
// Result.Model map of that many variables does — a constant, however many
// nodes the search visits. The probes run on each prompt's pinned stack and
// on the rules alone, where the same ranges take larger searches.
func TestSMTCheckAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, fine, prompts, pin := oraclePattern(t)
	mapAllocs := testing.AllocsPerRun(10, func() {
		m := make(map[smt.Var]int64, s.NumVars())
		for v := 0; v < s.NumVars(); v++ {
			m[smt.Var(v)] = int64(v)
		}
		modelSink = m
	})
	minNodes, maxNodes, probes := ^uint64(0), uint64(0), 0
	probe := func(pinned bool) {
		for _, v := range fine {
			val := int64(-1)
			for d := int64(0); d <= 9; d++ {
				ge, le := smt.Ge(smt.V(v), smt.C(10*d)), smt.Le(smt.V(v), smt.C(10*d+9))
				before := s.Stats().Nodes
				r := s.CheckWith(ge, le)
				nodes := s.Stats().Nodes - before
				allocs := testing.AllocsPerRun(3, func() { r = s.CheckWith(ge, le) })
				budget := 0.0
				if r.Status == smt.Sat {
					budget = mapAllocs
					val = r.Model[v]
				}
				if allocs > budget {
					t.Errorf("CheckWith(%d ≤ v%d ≤ %d) = %v after %d nodes allocates %.0f objects, want ≤ %.0f",
						10*d, v, 10*d+9, r.Status, nodes, allocs, budget)
				}
				minNodes, maxNodes, probes = min(minNodes, nodes), max(maxNodes, nodes), probes+1
			}
			if pinned && val >= 0 {
				s.Assert(smt.Eq(smt.V(v), smt.C(val)))
			}
		}
	}
	probe(false)
	for _, rec := range prompts[:min(len(prompts), 4)] {
		s.Push()
		pin(rec)
		probe(true)
		s.Pop()
	}
	t.Logf("%d probes, %d to %d nodes, Sat budget %.0f allocations", probes, minNodes, maxNodes, mapAllocs)
	if maxNodes < 4*max(minNodes, 1) {
		t.Fatalf("probes searched %d to %d nodes: too narrow a spread to show the count does not grow with them", minNodes, maxNodes)
	}
}
