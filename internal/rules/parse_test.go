package rules

import (
	"strings"
	"testing"
)

// paperSchema is the §2.1 telemetry schema used throughout the tests:
// fine-grained ingress I[0..4] plus two coarse scalar counters.
func paperSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{Name: "I", Kind: Vector, Len: 5, Lo: 0, Hi: 60},
		Field{Name: "TotalIngress", Kind: Scalar, Lo: 0, Hi: 300},
		Field{Name: "Congestion", Kind: Scalar, Lo: 0, Hi: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const paperRules = `
# The paper's §2.1 rules R1-R3.
const BW = 60
const T  = 5

rule r1: forall t in 0..T-1: 0 <= I[t] and I[t] <= BW
rule r2: sum(I) == TotalIngress
rule r3: Congestion > 0 -> max(I) >= BW/2
`

func TestParsePaperRules(t *testing.T) {
	rs, err := ParseRuleSet(paperRules, paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 3 {
		t.Fatalf("got %d rules, want 3", rs.Len())
	}
	if rs.Consts["BW"] != 60 || rs.Consts["T"] != 5 {
		t.Errorf("consts = %v", rs.Consts)
	}
	wantNames := []string{"r1", "r2", "r3"}
	for i, r := range rs.Rules {
		if r.Name != wantNames[i] {
			t.Errorf("rule %d name %q, want %q", i, r.Name, wantNames[i])
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	schema := paperSchema(t)
	rs, err := ParseRuleSet(paperRules, schema)
	if err != nil {
		t.Fatal(err)
	}
	text := rs.String()
	rs2, err := ParseRuleSet(text, schema)
	if err != nil {
		t.Fatalf("re-parsing rendered rules: %v\n%s", err, text)
	}
	if rs2.String() != text {
		t.Errorf("round trip not stable:\nfirst:\n%s\nsecond:\n%s", text, rs2.String())
	}
}

func TestParseChainedComparison(t *testing.T) {
	rs, err := ParseRuleSet("rule c: forall t in 0..4: 0 <= I[t] <= 60", paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := rs.Eval(rs.Rules[0], Record{
		"I": {0, 10, 60, 5, 30}, "TotalIngress": {105}, "Congestion": {0},
	})
	if err != nil || !ok {
		t.Errorf("chained in-range: ok=%v err=%v", ok, err)
	}
	ok, err = rs.Eval(rs.Rules[0], Record{
		"I": {0, 10, 61, 5, 30}, "TotalIngress": {106}, "Congestion": {0},
	})
	if err != nil || ok {
		t.Errorf("chained out-of-range should fail: ok=%v err=%v", ok, err)
	}
}

func TestParseExists(t *testing.T) {
	rs, err := ParseRuleSet("rule e: exists t in 0..4: I[t] >= 30", paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := rs.Eval(rs.Rules[0], Record{"I": {1, 2, 3, 4, 35}, "TotalIngress": {45}, "Congestion": {0}})
	if !ok {
		t.Error("exists with witness should hold")
	}
	ok, _ = rs.Eval(rs.Rules[0], Record{"I": {1, 2, 3, 4, 5}, "TotalIngress": {15}, "Congestion": {0}})
	if ok {
		t.Error("exists without witness should fail")
	}
}

func TestParseErrors(t *testing.T) {
	schema := paperSchema(t)
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown field", "rule r: Foo > 0", "unknown identifier"},
		{"index scalar", "rule r: Congestion[0] > 0", "indexing scalar"},
		{"vector no index", "rule r: I > 0", "without index or aggregate"},
		{"agg scalar", "rule r: sum(Congestion) > 0", "aggregate sum over scalar"},
		{"dup rule", "rule r: Congestion > 0\nrule r: Congestion > 1", "duplicate rule"},
		{"dup const", "const A = 1\nconst A = 2", "duplicate constant"},
		{"const shadows field", "const I = 1", "shadows a schema field"},
		{"nonconst const", "const A = Congestion", "constant value"},
		{"bad token", "rule r: Congestion > 0 $", "unexpected character"},
		{"missing colon", "rule r Congestion > 0", "expected ':'"},
		{"loop shadows field", "rule r: forall I in 0..4: Congestion > 0", "shadows a schema field"},
		{"loop shadows loop", "rule r: forall t in 0..4: forall t in 0..4: I[t] > 0", "shadows an outer"},
		{"undeclared const", "rule r: Congestion > MISSING", "unknown identifier"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseRuleSet(c.src, schema)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestParseParenFormulaVsExpr(t *testing.T) {
	schema := paperSchema(t)
	// Parenthesized formula on the left of an implication.
	src := "rule r: (Congestion > 0 and TotalIngress > 50) -> max(I) >= 30"
	rs, err := ParseRuleSet(src, schema)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{"I": {10, 10, 10, 10, 10}, "TotalIngress": {50}, "Congestion": {5}}
	ok, err := rs.Eval(rs.Rules[0], rec)
	if err != nil || !ok {
		t.Errorf("vacuous implication: ok=%v err=%v", ok, err)
	}

	// Parenthesized arithmetic expression.
	src2 := "rule r: (TotalIngress + 10) * 2 >= 120"
	rs2, err := ParseRuleSet(src2, schema)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = rs2.Eval(rs2.Rules[0], rec)
	if err != nil || !ok {
		t.Errorf("(50+10)*2 >= 120: ok=%v err=%v", ok, err)
	}
}

func TestParseConstArithmetic(t *testing.T) {
	rs, err := ParseRuleSet("const A = 2*3+1\nconst B = A*10\nrule r: TotalIngress >= B", paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Consts["A"] != 7 || rs.Consts["B"] != 70 {
		t.Errorf("consts = %v, want A=7 B=70", rs.Consts)
	}
}

func TestParseNegativeLiterals(t *testing.T) {
	rs, err := ParseRuleSet("rule r: TotalIngress - 2*Congestion >= -10", paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := rs.Eval(rs.Rules[0], Record{"I": {0, 0, 0, 0, 0}, "TotalIngress": {0}, "Congestion": {5}})
	if err != nil || !ok {
		t.Errorf("0 - 10 >= -10: ok=%v err=%v", ok, err)
	}
}

func TestViolations(t *testing.T) {
	rs, err := ParseRuleSet(paperRules, paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig 1a invalid output: I = [20,15,25,70,8], sum 138 ≠ 100,
	// and I[3] = 70 > BW. (Record validation would reject 70 > Hi, so this
	// record bypasses schema validation deliberately — Violations works on
	// arbitrary records, e.g. raw model output.)
	rec := Record{"I": {20, 15, 25, 70, 8}, "TotalIngress": {100}, "Congestion": {8}}
	vs, err := rs.Violations(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"r1", "r2"}
	if len(vs) != len(want) || vs[0] != want[0] || vs[1] != want[1] {
		t.Errorf("violations = %v, want %v", vs, want)
	}

	// The paper's Fig 1b valid output: I = [20,15,25,39,1]? No — LeJIT's
	// example yields I3=39 and the solver forces I4=1; max is 39 ≥ 30. Use
	// a compliant record and expect no violations.
	good := Record{"I": {20, 15, 25, 39, 1}, "TotalIngress": {100}, "Congestion": {8}}
	vs, err = rs.Violations(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("violations on compliant record: %v", vs)
	}
}

func TestViolationRate(t *testing.T) {
	rs, err := ParseRuleSet(paperRules, paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{"I": {20, 15, 25, 39, 1}, "TotalIngress": {100}, "Congestion": {8}},  // clean
		{"I": {20, 15, 25, 70, 8}, "TotalIngress": {100}, "Congestion": {8}},  // r1+r2
		{"I": {10, 10, 10, 10, 10}, "TotalIngress": {50}, "Congestion": {0}},  // clean
		{"I": {10, 10, 10, 10, 10}, "TotalIngress": {50}, "Congestion": {99}}, // r3
	}
	pair, rec, err := rs.ViolationRate(recs)
	if err != nil {
		t.Fatal(err)
	}
	if wantPair := 3.0 / 12.0; pair != wantPair {
		t.Errorf("pair rate = %v, want %v", pair, wantPair)
	}
	if wantRec := 0.5; rec != wantRec {
		t.Errorf("record rate = %v, want %v", rec, wantRec)
	}
}

func TestFilter(t *testing.T) {
	schema := paperSchema(t)
	rs, err := ParseRuleSet("const BW = 60\nrule a1: sum(I) == TotalIngress\nrule b1: max(I) <= BW", schema)
	if err != nil {
		t.Fatal(err)
	}
	f := rs.Filter(func(r Rule) bool { return r.Name == "b1" })
	if f.Len() != 1 || f.Rules[0].Name != "b1" {
		t.Errorf("filter: %v", f.Rules)
	}
}

func TestSchemaValidate(t *testing.T) {
	s := paperSchema(t)
	good := Record{"I": {1, 2, 3, 4, 5}, "TotalIngress": {15}, "Congestion": {0}}
	if err := s.Validate(good); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	cases := []Record{
		{"I": {1, 2, 3, 4}, "TotalIngress": {15}, "Congestion": {0}},              // short vector
		{"I": {1, 2, 3, 4, 5}, "TotalIngress": {15}},                              // missing field
		{"I": {1, 2, 3, 4, 500}, "TotalIngress": {15}, "Congestion": {0}},         // out of domain
		{"I": {1, 2, 3, 4, 5}, "TotalIngress": {15}, "Congestion": {0}, "X": {1}}, // unknown field
	}
	for i, rec := range cases {
		if err := s.Validate(rec); err == nil {
			t.Errorf("case %d: invalid record accepted", i)
		}
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(Field{Name: "A", Kind: Scalar, Lo: 0, Hi: 5}, Field{Name: "A", Kind: Scalar, Lo: 0, Hi: 5}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := NewSchema(Field{Name: "A", Kind: Vector, Len: 0, Lo: 0, Hi: 5}); err == nil {
		t.Error("zero-length vector accepted")
	}
	if _, err := NewSchema(Field{Name: "A", Kind: Scalar, Lo: 5, Hi: 0}); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewSchema(Field{Name: "", Kind: Scalar, Lo: 0, Hi: 5}); err == nil {
		t.Error("empty name accepted")
	}
}
