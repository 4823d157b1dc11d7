package rules

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/smt"
)

func TestParseCount(t *testing.T) {
	schema := paperSchema(t)
	rs, err := ParseRuleSet("rule bursts: count(I >= 30) <= 2", schema)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rules[0].String(); !strings.Contains(got, "count(I >= 30)") {
		t.Errorf("rendered rule %q", got)
	}
	// Round-trip through the renderer.
	if _, err := ParseRuleSet(rs.String(), schema); err != nil {
		t.Fatalf("re-parse: %v\n%s", err, rs.String())
	}
}

func TestParseCountErrors(t *testing.T) {
	schema := paperSchema(t)
	cases := []struct{ src, want string }{
		{"rule r: count(Congestion >= 1) <= 2", "count over scalar"},
		{"rule r: count(Missing >= 1) <= 2", "unknown field"},
		{"rule r: count(I) <= 2", "expected comparison operator"},
		{"rule r: count(I >= 30) + 1 <= 2", ""}, // parses; compile must reject
	}
	for _, c := range cases {
		rs, err := ParseRuleSet(c.src, schema)
		if c.want == "" {
			if err != nil {
				t.Fatalf("%s: unexpected parse error %v", c.src, err)
			}
			s, b := compileEnv(t, schema)
			_ = s
			if _, err := rs.Compile(rs.Rules[0], b); err == nil {
				t.Errorf("%s: count in arithmetic should not compile", c.src)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want %q", c.src, err, c.want)
		}
	}
}

func TestEvalCount(t *testing.T) {
	schema := paperSchema(t)
	rec := Record{"I": {35, 10, 40, 29, 30}, "TotalIngress": {144}, "Congestion": {5}}
	cases := []struct {
		src string
		ok  bool
	}{
		{"rule r: count(I >= 30) == 3", true},
		{"rule r: count(I >= 30) <= 2", false},
		{"rule r: count(I < 30) == 2", true},
		{"rule r: count(I == 10) == 1", true},
		{"rule r: count(I != 10) == 4", true},
		{"rule r: count(I > 29) >= 3", true},
		{"rule r: 3 == count(I >= 30)", true}, // flipped side
	}
	for _, c := range cases {
		rs, err := ParseRuleSet(c.src, schema)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		got, err := rs.Eval(rs.Rules[0], rec)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got != c.ok {
			t.Errorf("%s = %v, want %v", c.src, got, c.ok)
		}
	}
}

// TestCountEvalAgreesWithSMT is the semantic-agreement property for count.
func TestCountEvalAgreesWithSMT(t *testing.T) {
	schema := MustSchema(
		Field{Name: "X", Kind: Vector, Len: 4, Lo: 0, Hi: 5},
		Field{Name: "S", Kind: Scalar, Lo: 0, Hi: 20},
	)
	srcs := []string{
		"rule r: count(X >= 3) <= 2",
		"rule r: count(X >= 3) >= 1",
		"rule r: count(X > 2) == 2",
		"rule r: count(X <= 1) < 3",
		"rule r: count(X != 0) > 1",
		"rule r: S > 10 -> count(X >= 4) >= 1",
		"rule r: count(X >= S - 15) >= 2", // variable inner threshold
	}
	rng := rand.New(rand.NewSource(77))
	for _, src := range srcs {
		rs, err := ParseRuleSet(src, schema)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for trial := 0; trial < 30; trial++ {
			rec := Record{
				"X": {int64(rng.Intn(6)), int64(rng.Intn(6)), int64(rng.Intn(6)), int64(rng.Intn(6))},
				"S": {int64(rng.Intn(21))},
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

// TestCountGuidesGeneration verifies count rules constrain the feasible set
// the way LeJIT needs: with count(X >= 3) == 0 asserted, no element may
// reach 3.
func TestCountGuidesGeneration(t *testing.T) {
	schema := MustSchema(Field{Name: "X", Kind: Vector, Len: 3, Lo: 0, Hi: 9})
	rs, err := ParseRuleSet("rule r: count(X >= 3) == 0", schema)
	if err != nil {
		t.Fatal(err)
	}
	s := smt.NewSolver()
	b := Instantiate(s, schema)
	f, err := rs.Compile(rs.Rules[0], b)
	if err != nil {
		t.Fatal(err)
	}
	s.Assert(f)
	xs, _ := b.Vars("X")
	for v, want := range map[int64]smt.Status{0: smt.Sat, 2: smt.Sat, 3: smt.Unsat} {
		if st := s.CheckWith(smt.Eq(smt.V(xs[1]), smt.C(v))).Status; st != want {
			t.Errorf("X[1] = %d: %v, want %v (range [0,2])", v, st, want)
		}
	}
}

func TestBinomTooBig(t *testing.T) {
	if binomTooBig(5, 2, 10000) {
		t.Error("C(5,2)=10 flagged as too big")
	}
	if !binomTooBig(40, 20, 10000) {
		t.Error("C(40,20) not flagged")
	}
	if binomTooBig(20, 0, 1) {
		t.Error("C(n,0)=1 flagged")
	}
}
