package smt

import (
	"testing"
	"testing/quick"
)

// CV returns the expression c·v.
func CV(c int64, v Var) LinExpr { return V(v).Scale(c) }

// Sum returns the sum of the given expressions.
func Sum(es ...LinExpr) LinExpr {
	var out LinExpr
	for _, e := range es {
		out = out.Add(e)
	}
	return out
}

func TestLinExprBuilders(t *testing.T) {
	x, y := Var(0), Var(1)
	e := V(y).Scale(3).Add(V(x).Scale(2)).AddConst(5)
	if e.NumTerms() != 2 {
		t.Fatalf("%v has %d terms, want 2", e, e.NumTerms())
	}
	if v, c := e.Term(0); v != x || c != 2 {
		t.Errorf("Term(0) = (%d, %d), want (x0, 2)", v, c)
	}
	if v, c := e.Term(1); v != y || c != 3 {
		t.Errorf("Term(1) = (%d, %d), want (x1, 3)", v, c)
	}
	if got := e.Const(); got != 5 {
		t.Errorf("Const = %d, want 5", got)
	}
}

func TestLinExprAddCancels(t *testing.T) {
	x := Var(0)
	e := V(x).Add(CV(-1, x))
	if !e.IsConst() || e.Const() != 0 {
		t.Errorf("x + (-x) = %v, want constant 0", e)
	}
}

func TestLinExprSubScale(t *testing.T) {
	x, y := Var(0), Var(1)
	e := V(x).Sub(V(y)).Scale(4) // 4x - 4y
	if got := e.String(); got != "4*x0 - 4*x1" {
		t.Errorf("scale: got %s", got)
	}
	if e.Scale(0).NumTerms() != 0 {
		t.Error("Scale(0) should drop all terms")
	}
}

func TestLinExprEval(t *testing.T) {
	x, y := Var(0), Var(1)
	e := Sum(CV(2, x), CV(-1, y), C(7))
	v, err := e.Eval(map[Var]int64{x: 3, y: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2*3-4+7 {
		t.Errorf("Eval = %d, want 9", v)
	}
	if _, err := e.Eval(map[Var]int64{x: 3}); err == nil {
		t.Error("Eval with missing var should error")
	}
}

func TestLinExprAddCommutative(t *testing.T) {
	f := func(ax, ay, ak, bx, by, bk int8) bool {
		x, y := Var(0), Var(1)
		a := Sum(CV(int64(ax), x), CV(int64(ay), y), C(int64(ak)))
		b := Sum(CV(int64(bx), x), CV(int64(by), y), C(int64(bk)))
		l, r := a.Add(b), b.Add(a)
		return l.String() == r.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivisionHelpers(t *testing.T) {
	cases := []struct {
		a, b, fl, ce int64
	}{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{6, 3, 2, 2},
		{-6, 3, -2, -2},
		{0, 5, 0, 0},
		{1, 7, 0, 1},
		{-1, 7, -1, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.fl {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.fl)
		}
		if got := ceilDiv(c.a, c.b); got != c.ce {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ce)
		}
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, g int64 }{
		{12, 18, 6}, {7, 13, 1}, {0, 5, 5}, {5, 0, 5}, {0, 0, 0},
	}
	for _, c := range cases {
		if got := gcd64(c.a, c.b); got != c.g {
			t.Errorf("gcd(%d,%d) = %d, want %d", c.a, c.b, got, c.g)
		}
	}
}

func TestLinExprString(t *testing.T) {
	x, y := Var(0), Var(1)
	cases := []struct {
		e    LinExpr
		want string
	}{
		{C(5), "5"},
		{V(x), "x0"},
		{CV(-1, x), "-x0"},
		{Sum(CV(2, x), CV(-3, y), C(1)), "2*x0 - 3*x1 + 1"},
		{Sum(V(x), C(-4)), "x0 - 4"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
