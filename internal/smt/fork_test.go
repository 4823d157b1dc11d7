package smt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// forkDom is the upper bound of every variable of forkSource's solvers.
const forkDom = 6

// forkSource declares nv variables over [0, forkDom] and asserts na rows of
// the kind mined rule sets are made of; one seed always builds the same
// solver.
func forkSource(seed int64, nv, na int) *Solver {
	rng := rand.New(rand.NewSource(seed))
	s := NewSolver()
	vars := make([]Var, nv)
	for i := range vars {
		vars[i] = s.NewVar(fmt.Sprintf("x%d", i), 0, forkDom)
	}
	for range na {
		s.Assert(randRowFormula(rng, vars, forkDom))
	}
	return s
}

// forkTrack is one fork of a shared source and a solver built from scratch
// like the source, driven through the same operations.
type forkTrack struct {
	fork, fresh *Solver
	rng         *rand.Rand
	vars        []Var
	depth       int
}

// step applies op to both solvers of tr and fails t unless they answer alike
// — status, model, cumulative Nodes and Checks, BaseBounds — and hold equal
// epochs afterwards.
func (tr *forkTrack) step(t *testing.T, name string, op byte) {
	t.Helper()
	both := [2]*Solver{tr.fork, tr.fresh}
	var res [2]Result
	checked := false
	switch op % 6 {
	case 0:
		name += " Push"
		for _, s := range both {
			s.Push()
		}
		tr.depth++
	case 1:
		name += " Assert"
		g := randRowFormula(tr.rng, tr.vars, forkDom)
		for _, s := range both {
			s.Assert(g)
		}
	case 2:
		name += " CheckWith"
		var extra []Formula
		for k := tr.rng.Intn(3); k > 0; k-- {
			extra = append(extra, randomFuzzFormula(tr.rng, tr.vars))
		}
		for i, s := range both {
			res[i] = s.CheckWith(extra...)
		}
		checked = true
	case 3:
		if tr.depth == 0 {
			name += " Check"
			for i, s := range both {
				res[i] = s.Check()
			}
			checked = true
			break
		}
		name += " Pop"
		for _, s := range both {
			s.Pop()
		}
		tr.depth--
	case 4:
		// NewVar inside a frame makes every shared base store stale and
		// keeps Pop from restoring its epoch.
		name += " NewVar"
		hi := 1 + tr.rng.Int63n(forkDom)
		for _, s := range both {
			s.NewVar(fmt.Sprintf("y%d", len(tr.vars)), 0, hi)
		}
		tr.vars = append(tr.vars, Var(len(tr.vars)))
	case 5:
		name += " probe"
		v := tr.vars[tr.rng.Intn(len(tr.vars))]
		lo := int64(tr.rng.Intn(forkDom + 1))
		probe := []Formula{Ge(V(v), C(lo)), Le(V(v), C(lo+int64(tr.rng.Intn(3))))}
		flo, fhi, fok := tr.fork.BaseBounds(v)
		if lo, hi, ok := tr.fresh.BaseBounds(v); flo != lo || fhi != hi || fok != ok {
			t.Fatalf("%s: fork BaseBounds(%d) = [%d,%d] %v, fresh [%d,%d] %v", name, v, flo, fhi, fok, lo, hi, ok)
		}
		for i, s := range both {
			res[i] = s.CheckWith(probe...)
		}
		checked = true
	}
	if checked && (res[0].Status != res[1].Status || !reflect.DeepEqual(res[0].Model, res[1].Model)) {
		t.Fatalf("%s: fork gave %v %v, fresh %v %v", name, res[0].Status, res[0].Model, res[1].Status, res[1].Model)
	}
	if fs, ws := tr.fork.Stats(), tr.fresh.Stats(); fs.Nodes != ws.Nodes || fs.Checks != ws.Checks {
		t.Fatalf("%s: fork at %d nodes / %d checks, fresh %d / %d", name, fs.Nodes, fs.Checks, ws.Nodes, ws.Checks)
	}
	if tr.fork.Epoch() != tr.fresh.Epoch() {
		t.Fatalf("%s: fork epoch %d, fresh %d", name, tr.fork.Epoch(), tr.fresh.Epoch())
	}
}

// FuzzForkMatchesFresh: a fork answers a Push / Assert / CheckWith / Pop /
// NewVar sequence exactly as a solver built from scratch with the source's
// declarations and assertions does (forkTrack.step), Pop's restored epochs
// included. Two forks of one source run different sequences side by side,
// so one writing into what they share shows; the source, forked with its
// rules-only base store built (warm) or not, keeps its assertion stack,
// epoch and Stats throughout.
func FuzzForkMatchesFresh(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), true, []byte{0, 1, 1, 2, 5, 3, 2, 0, 1, 5, 0, 1, 2, 3, 3, 2})
	f.Add(int64(7), uint8(5), uint8(8), false, []byte{2, 0, 1, 5, 5, 0, 1, 2, 3, 5, 3, 2})
	f.Add(int64(-3), uint8(2), uint8(1), true, []byte{0, 4, 1, 2, 3, 2, 0, 0, 1, 1, 5, 3, 5, 3, 2})
	f.Add(int64(99), uint8(4), uint8(12), true, []byte{0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 10, 5})
	f.Add(int64(-114), uint8(168), uint8(36), true, []byte("01"))
	f.Add(int64(12), uint8(1), uint8(3), false, []byte{4, 3, 5, 2, 4, 5, 1, 5, 0, 4, 5, 2, 3, 5})
	f.Fuzz(func(t *testing.T, seed int64, nv, na uint8, warm bool, ops []byte) {
		nVars, nAsserts := 2+int(nv)%4, int(na)%13
		if len(ops) > 64 {
			ops = ops[:64]
		}
		src := forkSource(seed, nVars, nAsserts)
		if warm {
			src.Check()
		}
		srcStack, srcEpoch, srcStats := src.NumAssertions(), src.Epoch(), src.Stats()
		tracks := [2]*forkTrack{}
		for k := range tracks {
			tracks[k] = &forkTrack{fork: src.Fork(), fresh: forkSource(seed, nVars, nAsserts), rng: rand.New(rand.NewSource(seed + int64(k)))}
			for v := range nVars {
				tracks[k].vars = append(tracks[k].vars, Var(v))
			}
		}
		for i, op := range ops {
			// The second track runs the sequence rotated by one operation
			// kind, so the two forks assert, push and pop at different times.
			tracks[0].step(t, fmt.Sprintf("step %d, fork 0:", i), op)
			tracks[1].step(t, fmt.Sprintf("step %d, fork 1:", i), op+1)
			if src.NumAssertions() != srcStack || src.Epoch() != srcEpoch || src.Stats() != srcStats {
				t.Fatalf("step %d: the source moved: %d assertions, epoch %d, %+v; forked at %d, %d, %+v",
					i, src.NumAssertions(), src.Epoch(), src.Stats(), srcStack, srcEpoch, srcStats)
			}
		}
	})
}

// TestForkSharesBaseStore: a fork of a solver whose rules-only base store is
// built answers its first Check from that store, building none, and a fork
// of a solver with an open frame panics.
func TestForkSharesBaseStore(t *testing.T) {
	src := forkSource(5, 4, 6)
	want := src.Check()
	fk := src.Fork()
	if got := fk.Check(); got.Status != want.Status || !reflect.DeepEqual(got.Model, want.Model) {
		t.Fatalf("fork Check %v %v, source %v %v", got.Status, got.Model, want.Status, want.Model)
	}
	if st := fk.Stats(); st.BaseBuilds != 0 || st.WarmStarts != 1 {
		t.Fatalf("fork's first Check: %d base builds, %d warm starts; want 0 and 1", st.BaseBuilds, st.WarmStarts)
	}
	src.Push()
	defer func() {
		if recover() == nil {
			t.Fatal("Fork with an open frame did not panic")
		}
	}()
	src.Fork()
}
