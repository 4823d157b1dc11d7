package rules

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/smt"
)

// compileEnv creates a solver + binding for the paper schema.
func compileEnv(t *testing.T, schema *Schema) (*smt.Solver, *Binding) {
	t.Helper()
	s := smt.NewSolver()
	return s, Instantiate(s, schema)
}

func TestCompilePaperRulesSat(t *testing.T) {
	schema := paperSchema(t)
	rs, err := ParseRuleSet(paperRules, schema)
	if err != nil {
		t.Fatal(err)
	}
	s, b := compileEnv(t, schema)
	f, err := rs.CompileAll(b)
	if err != nil {
		t.Fatal(err)
	}
	s.Assert(f)
	// Pin the coarse inputs of the paper's running example.
	ti, _ := b.Vars("TotalIngress")
	cg, _ := b.Vars("Congestion")
	s.Assert(smt.Eq(smt.V(ti[0]), smt.C(100)))
	s.Assert(smt.Eq(smt.V(cg[0]), smt.C(8)))

	r := s.Check()
	if r.Status != smt.Sat {
		t.Fatalf("paper rules with TI=100, C=8: %v, want sat", r.Status)
	}
	// Extract the model into a record and confirm zero violations.
	iv, _ := b.Vars("I")
	rec := Record{"TotalIngress": {100}, "Congestion": {8}, "I": make([]int64, 5)}
	for i, v := range iv {
		rec["I"][i] = r.Model[v]
	}
	vs, err := rs.Violations(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("solver model violates rules %v (record %v)", vs, rec)
	}
}

func TestCompileRejectsNonlinear(t *testing.T) {
	schema := paperSchema(t)
	rs, err := ParseRuleSet("rule bad: TotalIngress * Congestion > 0", schema)
	if err != nil {
		t.Fatal(err)
	}
	_, b := compileEnv(t, schema)
	if _, err := rs.Compile(rs.Rules[0], b); err == nil {
		t.Error("nonlinear product should not compile")
	}
}

func TestCompileRejectsVariableDivision(t *testing.T) {
	schema := paperSchema(t)
	rs, err := ParseRuleSet("rule bad: TotalIngress / 2 > 0", schema)
	if err != nil {
		t.Fatal(err)
	}
	_, b := compileEnv(t, schema)
	if _, err := rs.Compile(rs.Rules[0], b); err == nil {
		t.Error("non-constant division should not compile")
	}
}

func TestCompileRejectsAggArithmetic(t *testing.T) {
	schema := paperSchema(t)
	rs, err := ParseRuleSet("rule bad: max(I) + 1 > 0", schema)
	if err != nil {
		t.Fatal(err)
	}
	_, b := compileEnv(t, schema)
	if _, err := rs.Compile(rs.Rules[0], b); err == nil {
		t.Error("max inside arithmetic should not compile")
	}
}

func TestCompileMaxMinExpansions(t *testing.T) {
	schema := paperSchema(t)
	cases := []struct {
		src string
		rec Record
		ok  bool
	}{
		{"rule r: max(I) >= 30", Record{"I": {1, 2, 35, 4, 5}, "TotalIngress": {47}, "Congestion": {0}}, true},
		{"rule r: max(I) >= 30", Record{"I": {1, 2, 3, 4, 5}, "TotalIngress": {15}, "Congestion": {0}}, false},
		{"rule r: max(I) <= 10", Record{"I": {1, 2, 3, 4, 5}, "TotalIngress": {15}, "Congestion": {0}}, true},
		{"rule r: max(I) <= 10", Record{"I": {1, 2, 30, 4, 5}, "TotalIngress": {42}, "Congestion": {0}}, false},
		{"rule r: max(I) == 5", Record{"I": {1, 2, 3, 4, 5}, "TotalIngress": {15}, "Congestion": {0}}, true},
		{"rule r: max(I) == 5", Record{"I": {1, 2, 3, 4, 4}, "TotalIngress": {14}, "Congestion": {0}}, false},
		{"rule r: min(I) >= 1", Record{"I": {1, 2, 3, 4, 5}, "TotalIngress": {15}, "Congestion": {0}}, true},
		{"rule r: min(I) >= 1", Record{"I": {0, 2, 3, 4, 5}, "TotalIngress": {14}, "Congestion": {0}}, false},
		{"rule r: min(I) <= 2", Record{"I": {1, 2, 3, 4, 5}, "TotalIngress": {15}, "Congestion": {0}}, true},
		{"rule r: 30 <= max(I)", Record{"I": {1, 2, 35, 4, 5}, "TotalIngress": {47}, "Congestion": {0}}, true},
		{"rule r: min(I) != 0", Record{"I": {1, 2, 3, 4, 5}, "TotalIngress": {15}, "Congestion": {0}}, true},
		{"rule r: min(I) != 0", Record{"I": {0, 2, 3, 4, 5}, "TotalIngress": {14}, "Congestion": {0}}, false},
	}
	for _, c := range cases {
		t.Run(c.src, func(t *testing.T) {
			rs, err := ParseRuleSet(c.src, schema)
			if err != nil {
				t.Fatal(err)
			}
			// Concrete evaluation must agree with expectation.
			got, err := rs.Eval(rs.Rules[0], c.rec)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.ok {
				t.Errorf("Eval = %v, want %v", got, c.ok)
			}
			// SMT compilation pinned to the record must agree too.
			s, b := compileEnv(t, schema)
			f, err := rs.Compile(rs.Rules[0], b)
			if err != nil {
				t.Fatal(err)
			}
			s.Assert(pinRecord(b, c.rec))
			r := s.CheckWith(f)
			if (r.Status == smt.Sat) != c.ok {
				t.Errorf("SMT check = %v, want sat=%v", r.Status, c.ok)
			}
		})
	}
}

// pinRecord builds a formula asserting every field equals the record value.
func pinRecord(b *Binding, rec Record) smt.Formula {
	var fs []smt.Formula
	names := make([]string, 0, len(rec))
	for name := range rec {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vs, ok := b.Vars(name)
		if !ok {
			continue
		}
		for i, v := range rec[name] {
			fs = append(fs, smt.Eq(smt.V(vs[i]), smt.C(v)))
		}
	}
	return smt.And(fs...)
}

// TestEvalAgreesWithSMT is the key semantic-agreement property: for random
// compilable rules and random records, concrete evaluation and SMT
// satisfiability of the pinned instance must coincide.
func TestEvalAgreesWithSMT(t *testing.T) {
	schema := MustSchema(
		Field{Name: "X", Kind: Vector, Len: 3, Lo: 0, Hi: 9},
		Field{Name: "S", Kind: Scalar, Lo: 0, Hi: 30},
	)
	srcs := []string{
		"rule r: forall t in 0..2: X[t] <= S",
		"rule r: sum(X) == S",
		"rule r: S > 5 -> max(X) >= 4",
		"rule r: exists t in 0..2: X[t] == S - 10 or X[t] > 7",
		"rule r: not (min(X) < 2)",
		"rule r: forall t in 0..1: X[t] <= X[t+1]",
		"rule r: 2*X[0] - X[1] + 3 >= X[2]",
		"rule r: max(X) <= 8 and min(X) >= 1",
		"rule r: sum(X) != S",
		"rule r: (X[0] > 3 and X[1] > 3) or S < 5",
	}
	rng := rand.New(rand.NewSource(99))
	for _, src := range srcs {
		rs, err := ParseRuleSet(src, schema)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for trial := 0; trial < 30; trial++ {
			rec := Record{
				"X": {int64(rng.Intn(10)), int64(rng.Intn(10)), int64(rng.Intn(10))},
				"S": {int64(rng.Intn(31))},
			}
			want, err := rs.Eval(rs.Rules[0], rec)
			if err != nil {
				t.Fatal(err)
			}
			s := smt.NewSolver()
			b := Instantiate(s, schema)
			f, err := rs.Compile(rs.Rules[0], b)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			s.Assert(pinRecord(b, rec))
			r := s.CheckWith(f)
			if (r.Status == smt.Sat) != want {
				t.Errorf("%s on %v: eval=%v smt=%v", src, rec, want, r.Status)
			}
		}
	}
}

func TestCompileIndexOutOfRange(t *testing.T) {
	schema := paperSchema(t)
	rs, err := ParseRuleSet("rule r: forall t in 0..5: I[t] >= 0", schema) // I has len 5: index 5 invalid
	if err != nil {
		t.Fatal(err)
	}
	_, b := compileEnv(t, schema)
	if _, err := rs.Compile(rs.Rules[0], b); err == nil {
		t.Error("out-of-range index should fail at compile time")
	}
}

func TestInstantiateNamesAndBounds(t *testing.T) {
	schema := paperSchema(t)
	s := smt.NewSolver()
	b := Instantiate(s, schema)
	iv, ok := b.Vars("I")
	if !ok || len(iv) != 5 {
		t.Fatalf("I vars: %v ok=%v", iv, ok)
	}
	if lo, hi := s.Bounds(iv[0]); lo != 0 || hi != 60 {
		t.Errorf("I[0] bounds [%d,%d], want [0,60]", lo, hi)
	}
	if name := s.VarName(iv[2]); name != "I[2]" {
		t.Errorf("I[2] name %q", name)
	}
	tv, _ := b.Vars("TotalIngress")
	if name := s.VarName(tv[0]); name != "TotalIngress" {
		t.Errorf("scalar name %q", name)
	}
}
