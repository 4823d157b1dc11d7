package smt

import (
	"context"
	"errors"
	"testing"
	"time"
)

// hardSolver builds a store whose Check needs well over 64 search nodes:
// twelve wide variables coupled by a sum and per-variable edge disjunctions,
// so the search must branch repeatedly before finding a model.
func hardSolver() *Solver {
	s := NewSolver()
	vars := make([]Var, 12)
	sum := C(0)
	for i := range vars {
		vars[i] = s.NewVar("x", 0, 50)
		sum = sum.Add(V(vars[i]))
		s.Assert(Or(Lt(V(vars[i]), C(5)), Gt(V(vars[i]), C(45))))
	}
	s.Assert(Eq(sum, C(300)))
	return s
}

func TestBudgetResultCarriesErrBudget(t *testing.T) {
	s := hardSolver()
	s.MaxNodes = 2
	r := s.Check()
	if r.Status != Unknown {
		t.Fatalf("status %v with MaxNodes=2, want unknown", r.Status)
	}
	if !errors.Is(r.Err, ErrBudget) {
		t.Fatalf("Result.Err = %v, want ErrBudget", r.Err)
	}
	if s.Stats().BudgetStops == 0 {
		t.Error("BudgetStops not counted")
	}

	// With the default budget the same store is decidable, and decisive
	// results carry no error.
	s.MaxNodes = 1 << 20
	r = s.Check()
	if r.Status == Unknown {
		t.Fatalf("default budget still unknown")
	}
	if r.Err != nil {
		t.Errorf("decisive result carries err %v", r.Err)
	}
}

func TestPropagationBudget(t *testing.T) {
	s := hardSolver()
	s.MaxProps = 1
	r := s.Check()
	if r.Status != Unknown || !errors.Is(r.Err, ErrBudget) {
		t.Fatalf("status %v err %v with MaxProps=1, want unknown/ErrBudget", r.Status, r.Err)
	}

	// A store that needs no propagation at all stays decidable under the
	// same tiny propagation budget.
	tiny := NewSolver()
	tiny.MaxProps = 1
	tiny.NewVar("y", 3, 3)
	if r := tiny.Check(); r.Status != Sat {
		t.Fatalf("propagation-free store: %v, want sat", r.Status)
	}
}

func TestTimeoutStopsSearch(t *testing.T) {
	s := hardSolver()
	s.Timeout = time.Nanosecond
	start := time.Now()
	r := s.Check()
	if r.Status != Unknown || !errors.Is(r.Err, ErrBudget) {
		t.Fatalf("status %v err %v with 1ns timeout, want unknown/ErrBudget", r.Status, r.Err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timeout took %v to fire", time.Since(start))
	}
}

func TestSetContextAbandonsCheck(t *testing.T) {
	s := hardSolver()

	// Already-cancelled context: the Check does no search work at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(ctx)
	nodesBefore := s.Stats().Nodes
	r := s.Check()
	if r.Status != Unknown || !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("status %v err %v under cancelled ctx, want unknown/Canceled", r.Status, r.Err)
	}
	if s.Stats().Nodes != nodesBefore {
		t.Errorf("cancelled Check explored %d nodes", s.Stats().Nodes-nodesBefore)
	}

	// An expired deadline interrupts the search mid-Check (at a poll point),
	// not just between Checks.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(time.Microsecond))
	defer dcancel()
	time.Sleep(time.Millisecond)
	s.SetContext(dctx)
	r = s.Check()
	if r.Status != Unknown || !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("status %v err %v under expired deadline, want unknown/DeadlineExceeded", r.Status, r.Err)
	}

	// Detaching restores normal solving.
	s.SetContext(nil)
	if r := s.Check(); r.Status == Unknown {
		t.Fatalf("detached solver still unknown: %v", r.Err)
	}
}

func TestCheckWithHonorsBudget(t *testing.T) {
	s := hardSolver()
	s.MaxNodes = 2
	if r := s.CheckWith(Le(V(Var(0)), C(40))); r.Status != Unknown || !errors.Is(r.Err, ErrBudget) {
		t.Fatalf("CheckWith under exhausted budget: %v err %v, want unknown/ErrBudget", r.Status, r.Err)
	}
}
