package smt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Status is the outcome of a satisfiability check.
type Status int

const (
	// Unknown means the solver exhausted its search budget.
	Unknown Status = iota
	// Sat means a model was found.
	Sat
	// Unsat means no model exists.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Result carries the outcome of Check: the status and, when Sat, a model
// assigning every declared variable a value within its bounds.
type Result struct {
	Status Status
	Model  map[Var]int64
	// Err explains an Unknown status: ErrBudget when the node/propagation
	// budget or the per-Check deadline ran out, the context's error when the
	// Check was abandoned via SetContext. nil for Sat and Unsat.
	Err error
}

// Stats counts solver work, cumulative over the solver's lifetime.
type Stats struct {
	Checks       uint64 // Check / CheckWith invocations
	Nodes        uint64 // search-tree nodes explored
	Propagations uint64 // individual bound tightenings
	Conflicts    uint64 // dead ends reached during search
	OptQueries   uint64 // Minimize/Maximize invocations
	BaseBuilds   uint64 // warm-start base stores built (≤ one per epoch)
	WarmStarts   uint64 // Checks served from a memoized base store
	BudgetStops  uint64 // Checks that returned Unknown (budget, deadline, or cancellation)
}

// ErrBudget is carried by an Unknown Result whose Check exceeded its node or
// propagation budget or its per-Check deadline (Solver.MaxNodes, MaxProps,
// Timeout). It is the signal a serving layer maps to "overloaded, retry"
// rather than "infeasible".
var ErrBudget = errors.New("smt: search budget exhausted")

// Solver is an incremental SMT solver for QF-LIA over finite-domain integer
// variables. The zero value is not usable; create with NewSolver.
//
// Solver is not safe for concurrent use; create one per goroutine.
type Solver struct {
	names []string
	lo    []int64
	hi    []int64

	compiled []compiledAssert // the assertion stack, each lowered once at Assert
	frames   []frame          // one per open Push

	// epoch identifies the solver's logical state: two moments with equal
	// epochs have identical declared variables and identical assertion
	// stacks. Anything a caller memoizes against an epoch (the decoder's
	// witness model) is valid exactly when the epoch matches again. Fresh
	// epochs come from epochSrc; a Pop returns the solver to the state its
	// Push saw and restores that state's epoch, which is what keeps such
	// memos warm across records.
	epoch    uint64
	epochSrc uint64 // monotone source of never-reused fresh epoch values
	// gen guards epoch restoration: it advances when the variable set
	// changes (NewVar), so a saved epoch is only restored if the variables
	// are still exactly those it was saved under.
	gen uint64

	// base0 memoizes the propagated store of the empty assertion stack; the
	// store of every other stack prefix lives on the assertion that
	// completes it (compiledAssert.base).
	base0 *baseStore

	// MaxNodes bounds the search-tree size per Check; Check returns
	// Unknown when exceeded. The default is generous for LeJIT-scale
	// problems (tens of variables, hundreds of constraints).
	MaxNodes uint64
	// MaxProps bounds the propagation steps (individual bound tightenings)
	// one Check may perform; 0 means unlimited. Together with MaxNodes it
	// forms the decision/propagation step budget: a pathological rule set
	// whose cost is propagation-heavy rather than branch-heavy still stops.
	MaxProps uint64
	// Timeout bounds one Check's wall-clock time; 0 means none. The clock is
	// polled every budgetPollMask+1 nodes, so very small timeouts resolve at
	// node granularity, not instantly.
	Timeout time.Duration

	// ctx, when set via SetContext, is polled during search: cancellation or
	// deadline expiry abandons the Check mid-search with the context's error.
	ctx context.Context

	stats Stats

	// Worklist-propagation scratch, reused across Checks.
	workQ []int32
	inQ   []bool
	moved []bound

	// srch is the scratch every Check searches on (see searchState): once
	// warm, a Check allocates nothing but a Sat result's Model map.
	srch searchState
	// Base-store recycling (see baseAt and Pop): freeBases holds stores Pop
	// dropped, whose arrays the next builds refill; declared is the parent of
	// a store built from the declared domains alone. work, pendDisj, taintG
	// and taintMark are base-build scratch.
	freeBases []*baseStore
	declared  baseStore
	work      []Formula
	pendDisj  []orF
	taintG    []int32
	taintMark []bool
}

// compiledAssert is an asserted formula lowered once at Assert time: NNF
// applied, atoms normalized into linear constraints, disjunctions collected.
// unsat marks a formula with a trivially-false conjunct. base memoizes the
// propagated store of the stack prefix this assertion completes (nil until
// a Check needs it); living here, it is dropped by Pop together with the
// compiled form.
type compiledAssert struct {
	cons  []lincon
	disj  []orF
	unsat bool
	base  *baseStore
}

// frame is one open Push: the stack height Pop truncates back to, and the
// epoch and variable generation the solver had when it was pushed.
type frame struct {
	mark       int
	epoch, gen uint64
}

// compileAssert lowers f for the propagation engine, once per Assert instead
// of once per Check. Its rows own their terms: they outlive every scratch.
func (s *Solver) compileAssert(f Formula) compiledAssert {
	var ca compiledAssert
	if !decompose(nnf(f), &s.work, &ca.cons, &ca.disj, nil) {
		return compiledAssert{unsat: true}
	}
	return ca
}

// decompose breaks the NNF formula f into linear rows, appended to *cons,
// and disjunctions, appended to *disj, using *work as its worklist. Terms a
// row needs of its own are carved from arena (see normalizeAtom). It
// reports false when f has a trivially false conjunct; what it appended
// before finding it is then meaningless. Every lowering — an Assert, a
// probe's extras, a unit the base store folds in, a branch the search takes
// — goes through this one loop, so each yields its rows in the same order.
func decompose(f Formula, work *[]Formula, cons *[]lincon, disj *[]orF, arena *[]term) bool {
	pending := append((*work)[:0], f)
	ok := true
loop:
	for len(pending) > 0 {
		g := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		switch h := g.(type) {
		case boolF:
			if !h.v {
				ok = false
				break loop
			}
		case atomF:
			c, kind := normalizeAtom(h.a, arena)
			switch kind {
			case normTrue:
			case normFalse:
				ok = false
				break loop
			case normCon:
				*cons = append(*cons, c)
			case normSplit:
				lt := atomF{Atom{Expr: h.a.Expr, Op: OpLT}}
				gt := atomF{Atom{Expr: h.a.Expr, Op: OpGT}}
				*disj = append(*disj, orF{fs: []Formula{lt, gt}})
			}
		case andF:
			pending = append(pending, h.fs...)
		case orF:
			*disj = append(*disj, h)
		case notF:
			// nnf leaves no notF nodes; defensive.
			pending = append(pending, nnf(h))
		}
	}
	*work = pending[:0]
	return ok
}

// baseStore memoizes the assertion-stack-dependent part of a Check: the
// root domains propagated to fixpoint under a stack prefix, plus the
// constraints of that prefix that can still act on a smaller box. CheckWith
// warm-starts every probe of the same stack from here instead of
// recompiling and re-propagating it.
//
// Every field is a flat array the store owns, so a store Pop drops is
// refilled by a later build instead of reallocated. A derived store copies
// its parent's rows and disjunctions by value, and those values point into
// the parent's term and alternative arrays (terms, live): a store may
// therefore only be recycled together with every store derived from it,
// which Pop guarantees — a derived store sits higher on the stack than its
// parent.
type baseStore struct {
	gen      uint64 // variable generation built under; stale once it differs
	conflict bool   // the assertions alone are Unsat
	dom      domains
	cons     []lincon
	disj     []orF
	// graph is a union-find forest over the variables, joined by every row
	// asserted in the prefix, entailed or not; a derived store copies its
	// parent's and adds its own rows (see buildTaint).
	graph []int32
	// watch lists, per bound b (see bound), the indices of the cons that
	// read it, so a probe that moves it wakes only the constraints that can
	// react.
	watch csr
	// disjTaint[v] marks variables connected to a live disjunction (nil when
	// no disjunction survived simplification); see interval.go. taint backs
	// it across rebuilds.
	disjTaint []bool
	taint     []bool
	// live backs the alternatives of the disjunctions this store narrowed,
	// terms the normalized terms of the unit rows it folded in.
	live  []Formula
	terms []term
}

// csr is a compressed row index over bounds: the entries of bound b are
// idx[off[b]:off[b+1]], in ascending row order — the order the per-bound
// appends of a slice-of-slices index would have produced.
type csr struct{ off, idx []int32 }

func (w *csr) at(b bound) []int32 { return w.idx[w.off[b]:w.off[b+1]] }

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	return &Solver{MaxNodes: 1 << 20}
}

// Fork returns a solver over s's declared variables and current assertion
// stack that answers every call as a solver built from scratch with the same
// declarations and assertions would: same statuses, models, node counts and
// epochs (it starts at s's epoch, epoch source and variable generation), and
// the same budget (MaxNodes, MaxProps, Timeout). It compiles nothing: the
// compiled assertions and every base store s has already built for them are
// shared read-only — a base store never changes once built (see baseAt) —
// and the fork builds its own stores only for what it asserts later. The
// trail, the search scratch, the recycled stores and Stats (zeroed) are its
// own, and no attached context is carried over.
//
// Fork never writes to s, so any number of goroutines may fork one idle
// solver at once; s must not be mutated meanwhile. It panics if s has an
// open frame: a fork's Pop must never reach an assertion it shares.
func (s *Solver) Fork() *Solver {
	if len(s.frames) > 0 {
		panic("smt: Fork with an open frame")
	}
	return &Solver{
		// Capacity-clipped, so the fork's first NewVar or Assert copies them
		// instead of writing into s's arrays.
		names: slices.Clip(s.names),
		lo:    slices.Clip(s.lo),
		hi:    slices.Clip(s.hi),
		// Its own copy of the headers: the fork memoizes the stores it builds
		// on them.
		compiled: slices.Clone(s.compiled),
		epoch:    s.epoch,
		epochSrc: s.epochSrc,
		gen:      s.gen,
		base0:    s.base0,
		MaxNodes: s.MaxNodes,
		MaxProps: s.MaxProps,
		Timeout:  s.Timeout,
	}
}

// NewVar declares an integer variable with inclusive bounds [lo, hi].
// It panics if lo > hi: every variable must have a non-empty finite domain
// (see DESIGN.md §4 — bounded counters make the solver complete).
func (s *Solver) NewVar(name string, lo, hi int64) Var {
	if lo > hi {
		panic(fmt.Sprintf("smt: empty domain for %q: [%d,%d]", name, lo, hi))
	}
	v := Var(len(s.names))
	s.names = append(s.names, name)
	s.lo = append(s.lo, lo)
	s.hi = append(s.hi, hi)
	s.gen++
	s.bumpEpoch()
	return v
}

// bumpEpoch moves the solver to a fresh, never-before-issued epoch.
func (s *Solver) bumpEpoch() {
	s.epochSrc++
	s.epoch = s.epochSrc
}

// NumVars reports the number of declared variables.
func (s *Solver) NumVars() int { return len(s.names) }

// VarName returns the name v was declared with.
func (s *Solver) VarName(v Var) string { return s.names[v] }

// Bounds returns the declared domain of v.
func (s *Solver) Bounds(v Var) (lo, hi int64) { return s.lo[v], s.hi[v] }

// Assert adds f to the current assertion frame. The formula is compiled
// (NNF + atom normalization) once, here, not on every Check.
func (s *Solver) Assert(f Formula) {
	s.compiled = append(s.compiled, s.compileAssert(f))
	s.bumpEpoch()
}

// Push opens a new assertion frame.
func (s *Solver) Push() {
	s.frames = append(s.frames, frame{mark: len(s.compiled), epoch: s.epoch, gen: s.gen})
}

// Pop discards every assertion added since the matching Push and restores
// the epoch the solver had at that Push — unless a NewVar inside the frame
// changed the variable set, in which case the state is new and so is its
// epoch. It panics if no frame is open.
func (s *Solver) Pop() {
	if len(s.frames) == 0 {
		panic("smt: Pop without Push")
	}
	fr := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	// The stores of the popped prefixes go back to freeBases. Every store
	// derived from one of them sits higher still, so it is dropped here too.
	for i := fr.mark; i < len(s.compiled); i++ {
		if b := s.compiled[i].base; b != nil {
			s.freeBases = append(s.freeBases, b)
		}
		s.compiled[i] = compiledAssert{}
	}
	s.compiled = s.compiled[:fr.mark]
	if fr.gen == s.gen {
		s.epoch = fr.epoch
	} else {
		s.bumpEpoch()
	}
}

// SetContext attaches ctx to subsequent Checks: once it is cancelled or its
// deadline passes, an in-flight Check stops mid-search and returns Unknown
// with the context's error in Result.Err. Pass nil to detach. This is how a
// serving layer's per-request deadline interrupts solver work between — and
// within — token steps.
func (s *Solver) SetContext(ctx context.Context) { s.ctx = ctx }

// Epoch identifies the solver's logical state: equal epochs mean identical
// declared variables and identical assertion stacks. It changes on NewVar,
// Assert and Pop, and is stable across Check/CheckWith — but it is not
// monotone: a Pop returns the solver to the state of its Push and restores
// that state's epoch. Callers may key memoized results by it (LeJIT's
// witness model is); restoration deliberately revalidates such memos.
func (s *Solver) Epoch() uint64 { return s.epoch }

// NumAssertions reports the number of currently active assertions.
func (s *Solver) NumAssertions() int { return len(s.compiled) }

// Stats returns a copy of the cumulative statistics.
func (s *Solver) Stats() Stats { return s.stats }

// Check decides satisfiability of the conjunction of all active assertions.
func (s *Solver) Check() Result {
	return s.CheckWith()
}

// CheckWith decides satisfiability of the active assertions conjoined with
// extra, without mutating the assertion stack. The assertions themselves are
// not reprocessed: the check warm-starts from the stack's memoized base
// store and only compiles the extra formulas.
func (s *Solver) CheckWith(extra ...Formula) Result {
	s.stats.Checks++
	if s.ctx != nil {
		// A request already cancelled before this Check does no work at all.
		if err := s.ctx.Err(); err != nil {
			s.stats.BudgetStops++
			return Result{Status: Unknown, Err: err}
		}
	}
	if s.builtBase(len(s.compiled)) != nil {
		s.stats.WarmStarts++
	}
	base := s.currentBase()
	if base.conflict {
		s.stats.Conflicts++
		return Result{Status: Unsat}
	}
	st := &s.srch
	st.solv = s
	st.cons = append(st.cons[:0], base.cons...)
	st.terms = st.terms[:0]
	root := st.frame(0)
	root.disj = append(root.disj[:0], base.disj...)
	for _, f := range extra {
		if !decompose(nnf(f), &st.pending, &st.cons, &root.disj, &st.terms) {
			s.stats.Conflicts++
			return Result{Status: Unsat}
		}
	}
	st.dom.lo = append(st.dom.lo[:0], base.dom.lo...)
	st.dom.hi = append(st.dom.hi[:0], base.dom.hi...)
	st.nodes, st.limit, st.propsIn = 0, s.MaxNodes, s.stats.Propagations
	st.deadline, st.stopErr, st.hasDirty = time.Time{}, nil, false
	if s.Timeout > 0 {
		st.deadline = time.Now().Add(s.Timeout)
	}
	// The base domains are at fixpoint with the base constraints, so only
	// the extras (and whatever they disturb) need propagating; the search's
	// own first full propagation pass is then redundant and skipped.
	st.watch = base.watch
	st.watchN = len(base.cons)
	if len(st.cons) > len(base.cons) {
		if !s.propagateWakeup(&st.dom, st.cons, &base.watch, len(base.cons), len(base.cons), nil) {
			s.stats.Conflicts++
			return Result{Status: Unsat}
		}
	}
	st.skipProp = true
	status, model := st.search(0, nil)
	res := Result{Status: status, Model: model}
	if status == Unknown {
		s.stats.BudgetStops++
		res.Err = st.stopErr
		if res.Err == nil {
			res.Err = ErrBudget
		}
	}
	return res
}

// currentBase returns the base store of the whole assertion stack, building
// it on the first use after a mutation. Propagating the asserted constraints
// here is sound for every subsequent probe: bounds propagation only removes
// values that no model of the assertions can take, and extra formulas only
// shrink the model set further. The same monotonicity argument covers the
// disjunction simplification (see interval.go).
func (s *Solver) currentBase() *baseStore { return s.baseAt(len(s.compiled)) }

// builtBase returns the memoized base store of the stack prefix of length n,
// or nil when it has not been built for the current set of variables.
func (s *Solver) builtBase(n int) *baseStore {
	b := s.base0
	if n > 0 {
		b = s.compiled[n-1].base
	}
	if b == nil || b.gen != s.gen {
		return nil
	}
	return b
}

// baseAt returns the base store of the stack prefix of length n, deriving it
// from a parent on first use: the longest prefix already built; failing
// that, the innermost open frame below n, built now because Pop returns
// there and every later push starts from it; failing that, the declared
// domains. The parent's box is already at fixpoint with the parent's rows,
// so only the assertions above it, and what they disturb, are propagated —
// a decoder that pins one value per slot pays for that value's rows, not for
// the stack. Bounds consistency has one greatest fixpoint, whatever the
// order it is reached in, so a derived store has the domains, the conflict
// flag and the taint a from-scratch build of the same prefix would have.
//
// The store is built into the arrays of one Pop recycled when there is one,
// so a decoder that pushes, pins a record's values and pops allocates no
// stores once warm.
func (s *Solver) baseAt(n int) *baseStore {
	if b := s.builtBase(n); b != nil {
		return b
	}
	p, parent := n, (*baseStore)(nil)
	for p > 0 && parent == nil {
		p--
		parent = s.builtBase(p)
	}
	for i := len(s.frames) - 1; i >= 0 && parent == nil; i-- {
		if f := s.frames[i].mark; 0 < f && f < n {
			p, parent = f, s.baseAt(f)
		}
	}
	if parent == nil {
		parent = s.declaredBase()
	}

	s.stats.BaseBuilds++
	b := s.newBase()
	b.gen, b.conflict = s.gen, parent.conflict
	b.dom.lo = append(b.dom.lo[:0], parent.dom.lo...)
	b.dom.hi = append(b.dom.hi[:0], parent.dom.hi...)
	b.graph = append(b.graph[:0], parent.graph...)
	b.cons = append(b.cons[:0], parent.cons...) // its own array: dropEntailed filters in place
	b.disj = append(b.disj[:0], parent.disj...)
	b.live, b.terms = b.live[:0], b.terms[:0]
	b.watch.off, b.watch.idx, b.disjTaint = b.watch.off[:0], b.watch.idx[:0], nil
	for i := p; i < n; i++ {
		ca := &s.compiled[i]
		if ca.unsat {
			b.conflict = true
		}
		b.cons = append(b.cons, ca.cons...)
		b.disj = append(b.disj, ca.disj...)
		for j := range ca.cons {
			joinVars(b.graph, ca.cons[j].terms)
		}
	}
	if !b.conflict {
		// Rows above the parent are found by scan, as a probe's extras are;
		// with no parent rows to index, plain round-robin is the cheaper way
		// to bring a whole stack to fixpoint.
		if w := len(parent.cons); w == 0 {
			b.conflict = !propagate(&b.dom, b.cons, &s.stats.Propagations)
		} else {
			b.conflict = !s.propagateWakeup(&b.dom, b.cons, &parent.watch, w, w, nil)
		}
	}
	if !b.conflict {
		b.simplifyDisjunctions(s)
	}
	if !b.conflict {
		b.dropEntailed()
		b.buildTaint(s)
		b.buildWatch(len(s.lo))
	}
	if n == 0 {
		s.base0 = b
	} else {
		s.compiled[n-1].base = b
	}
	return b
}

// newBase hands out a store to build into: one Pop recycled, or a new one.
func (s *Solver) newBase() *baseStore {
	n := len(s.freeBases)
	if n == 0 {
		return &baseStore{}
	}
	b := s.freeBases[n-1]
	s.freeBases[n-1] = nil
	s.freeBases = s.freeBases[:n-1]
	return b
}

// declaredBase returns the parent of a store built from scratch: the
// declared domains, no rows, every variable its own component. It lives in
// the solver and is refilled on each use; a store derived from it copies
// everything it reads.
func (s *Solver) declaredBase() *baseStore {
	d := &s.declared
	d.dom.lo = append(d.dom.lo[:0], s.lo...)
	d.dom.hi = append(d.dom.hi[:0], s.hi...)
	d.graph = d.graph[:0]
	for v := range s.lo {
		d.graph = append(d.graph, int32(v))
	}
	return d
}

// dropEntailed removes from the store every row the propagated box already
// entails: an inequality whose left-hand side cannot exceed rhs anywhere in
// the box, an equality whose variables are all fixed on it. Probes and
// branches only shrink the box, so such a row can never tighten a bound,
// never conflict, and holds at every leaf — it is dead weight in the watch
// lists, the branch-variable scan and the final verification. Under a pinned
// prompt that is most of a mined rule set. Order among the kept rows is
// preserved, so the search visits what remains exactly as before.
func (b *baseStore) dropEntailed() {
	kept := b.cons[:0]
	for _, c := range b.cons {
		minSum, maxSum := b.dom.exprRange(LinExpr{terms: c.terms})
		if maxSum <= c.rhs && (!c.eq || minSum == c.rhs) {
			continue
		}
		kept = append(kept, c)
	}
	b.cons = kept
}

// buildWatch indexes the store's rows by the bounds they read (see reads):
// an inequality the lower bound of each positive term and the upper bound
// of each negative one, an equality both bounds of every term. A counting
// sort over the 2·nvars bounds, rows ascending within each.
func (b *baseStore) buildWatch(nvars int) {
	nb := 2 * nvars
	off := zeroed(b.watch.off, nb+1)
	b.eachWatch(func(bd bound, _ int32) { off[bd+1]++ })
	for i := 1; i <= nb; i++ {
		off[i] += off[i-1]
	}
	idx := zeroed(b.watch.idx, int(off[nb]))
	b.eachWatch(func(bd bound, i int32) {
		idx[off[bd]] = i
		off[bd]++
	})
	// Each cursor now sits at its bound's end, which is the next bound's
	// start: shift them back one place.
	copy(off[1:], off[:nb])
	off[0] = 0
	b.watch = csr{off: off, idx: idx}
}

// zeroed returns s resized to n zero elements, reusing its array when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// eachWatch calls fn(bound, row) for every watch entry, rows ascending.
func (b *baseStore) eachWatch(fn func(bound, int32)) {
	for i := range b.cons {
		c := &b.cons[i]
		for _, t := range c.terms {
			if c.eq || t.C > 0 {
				fn(loOf(t.V), int32(i))
			}
			if c.eq || t.C < 0 {
				fn(hiOf(t.V), int32(i))
			}
		}
	}
}

// propagateWakeup runs worklist propagation over cons, assuming d is already
// at fixpoint with respect to cons[:newFrom] except for the bounds listed in
// dirty (moved directly by a domain split). Seeds are the new constraints
// cons[newFrom:] plus the readers of every dirty bound. When a constraint
// moves a bound, the constraints that read it are re-queued — via the base
// store's watch index for cons[:watchN], by linear scan for the (few)
// constraints added during this Check's search. A row outside the queue is
// at fixpoint and stays there until a bound it reads moves, so the rows left
// asleep would have done nothing; the cost of a node is proportional to the
// constraints it actually disturbs instead of the whole assertion stack.
func (s *Solver) propagateWakeup(d *domains, cons []lincon, watch *csr, watchN, newFrom int, dirty []bound) bool {
	if cap(s.inQ) < len(cons) {
		s.inQ = make([]bool, len(cons))
	}
	inQ := s.inQ[:len(cons)]
	clear(inQ)
	q := s.workQ[:0]
	wake := func(b bound) {
		for _, j := range watch.at(b) {
			if !inQ[j] {
				inQ[j] = true
				q = append(q, j)
			}
		}
		for j := watchN; j < len(cons); j++ {
			if !inQ[j] && cons[j].reads(b) {
				inQ[j] = true
				q = append(q, int32(j))
			}
		}
	}
	for _, b := range dirty {
		wake(b)
	}
	for i := newFrom; i < len(cons); i++ {
		if !inQ[i] {
			inQ[i] = true
			q = append(q, int32(i))
		}
	}
	moved := s.moved[:0]
	ok := true
	for head := 0; head < len(q); head++ {
		i := q[head]
		inQ[i] = false
		moved = moved[:0]
		okOne, _ := propagateOne(d, &cons[i], &moved)
		if !okOne {
			ok = false
			break
		}
		s.stats.Propagations += uint64(len(moved))
		for _, b := range moved {
			wake(b)
		}
	}
	s.workQ, s.moved = q[:0], moved[:0]
	return ok
}

// budgetPollMask gates the wall-clock and context polls to every 64th node:
// frequent enough that a stalled Check stops within microseconds of real
// work, rare enough that time.Now never shows up in profiles.
const budgetPollMask = 63

// searchState is the scratch a Check searches on. The Solver owns one and
// every Check reuses it, so the search allocates nothing once warm — a Sat
// result's Model map is the one fresh object. In place of the per-node
// copies a recursive DPLL makes, three kinds of storage follow the DFS:
//
//   - cons is the row stack: the base store's rows and the probe's extras at
//     the bottom, above them the rows each node on the current path
//     decomposed. A child appends to it and its parent truncates it back
//     before the next child, so at every node it holds exactly the rows a
//     per-node copy would, in the same order. terms backs the normalized
//     terms of those rows and is truncated with it.
//   - frames[k] belongs to the node at depth k: its disjunctions (its input,
//     then each simplification round filtered in place), the live
//     alternatives its kept disjunctions point into, and the box it saves
//     before a child and restores after one that failed. While the node
//     waits on a child only deeper frames are written, so everything it
//     reads afterwards is as it left it.
//   - dom is the working box and pending the decomposition worklist.
//
// Nothing here changes what a node computes or the order children are
// visited in: every node sees the rows, disjunctions and box a copying
// search would hand it, so node counts, propagation counts and models are
// identical.
type searchState struct {
	dom     domains
	solv    *Solver
	cons    []lincon
	terms   []term
	frames  []*searchFrame
	pending []Formula
	nodes   uint64
	limit   uint64
	// propsIn snapshots cumulative propagations at Check entry; deadline is
	// the per-Check wall-clock cutoff (zero = none). stopErr records why the
	// search gave up, reported as Result.Err alongside Unknown.
	propsIn  uint64
	deadline time.Time
	stopErr  error
	// watch is the epoch's bound→constraint index covering cons[:watchN]
	// (the warm-started base); constraints beyond watchN were added during
	// this Check and are found by scan.
	watch  csr
	watchN int
	// skipProp marks the domains already at fixpoint with the constraints
	// handed to the next search call (warm-started probes); consumed once.
	skipProp bool
	// dirty is the bound a domain split just moved; the next search call
	// seeds propagation from its readers. Consumed once.
	dirty    bound
	hasDirty bool
}

// searchFrame is one DFS depth's scratch (see searchState).
type searchFrame struct {
	disj   []orF
	live   []Formula
	lo, hi []int64
}

// frame returns depth k's frame, creating it on first use. Frames are held
// by pointer, so growing the list never moves a frame an ancestor holds.
func (st *searchState) frame(k int) *searchFrame {
	for len(st.frames) <= k {
		st.frames = append(st.frames, &searchFrame{})
	}
	return st.frames[k]
}

// save copies d into the frame; restore copies it back.
func (fr *searchFrame) save(d *domains) {
	fr.lo = append(fr.lo[:0], d.lo...)
	fr.hi = append(fr.hi[:0], d.hi...)
}

func (fr *searchFrame) restore(d *domains) {
	copy(d.lo, fr.lo)
	copy(d.hi, fr.hi)
}

// overBudget reports why the search must stop, or nil to continue. Node and
// propagation budgets are exact; the deadline and the attached context are
// polled every budgetPollMask+1 nodes, starting at the first node so that an
// already-expired deadline stops even a short search.
func (st *searchState) overBudget() error {
	if st.nodes > st.limit {
		return ErrBudget
	}
	s := st.solv
	if s.MaxProps > 0 && s.stats.Propagations-st.propsIn > s.MaxProps {
		return ErrBudget
	}
	if st.nodes&budgetPollMask == 1 {
		if s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				return err
			}
		}
		if !st.deadline.IsZero() && time.Now().After(st.deadline) {
			return ErrBudget
		}
	}
	return nil
}

// search is the DPLL core, at DFS depth k. f, when non-nil, is the formula
// the node adds (a branch's alternative or a unit); its disjunctions are
// frames[k].disj, filled by the parent, and its rows are cons as the parent
// left it plus whatever f decomposes into. The domains in st.dom reflect
// the current branch. On Sat it returns a complete model.
func (st *searchState) search(k int, f Formula) (Status, map[Var]int64) {
	s := st.solv
	st.nodes++
	s.stats.Nodes++
	if err := st.overBudget(); err != nil {
		st.stopErr = err
		return Unknown, nil
	}

	d := &st.dom
	fr := st.frame(k)
	consIn := len(st.cons)

	// Decompose the node's formula into constraints and disjunctions.
	if f != nil && !decompose(f, &st.pending, &st.cons, &fr.disj, &st.terms) {
		s.stats.Conflicts++
		return Unsat, nil
	}

	// Propagate to fixpoint (unless the caller already did). The incoming
	// domains are at fixpoint with the incoming constraints — the parent
	// node propagated before branching — so only the decomposed additions
	// and the split variable's watchers need waking.
	if st.skipProp {
		st.skipProp = false
	} else {
		var dbuf [1]bound
		dirty := dbuf[:0]
		if st.hasDirty {
			dirty = append(dirty, st.dirty)
			st.hasDirty = false
		}
		if len(st.cons) > consIn || len(dirty) > 0 {
			if !s.propagateWakeup(d, st.cons, &st.watch, st.watchN, consIn, dirty) {
				s.stats.Conflicts++
				return Unsat, nil
			}
		}
	}

	// Simplify disjunctions under the tightened bounds: drop entailed
	// ones, prune refuted disjuncts, unit-propagate single survivors. Each
	// round filters disj in place; the survivors' alternatives go to live.
	disj, live := fr.disj, fr.live[:0]
	for {
		progressed := false
		kept := disj[:0]
		for i := 0; i < len(disj); i++ {
			g := disj[i]
			from := len(live)
			entailed := false
			for _, alt := range g.fs {
				switch d.formulaStatus(alt) {
				case triTrue:
					entailed = true
				case triUnknown:
					live = append(live, alt)
				}
				if entailed {
					break
				}
			}
			if entailed {
				live = live[:from]
				progressed = true
				continue
			}
			alts := live[from:len(live):len(live)]
			switch len(alts) {
			case 0:
				fr.disj, fr.live = disj, live
				s.stats.Conflicts++
				return Unsat, nil
			case 1:
				// Unit: assert the sole survivor now, alongside the
				// disjunctions kept so far and those not yet examined.
				ch := st.frame(k + 1)
				ch.disj = append(append(ch.disj[:0], kept...), disj[i+1:]...)
				fr.disj, fr.live = disj, live
				return st.search(k+1, alts[0])
			default:
				if len(alts) != len(g.fs) {
					progressed = true
				}
				kept = append(kept, orF{fs: alts})
			}
		}
		disj = kept
		if !progressed {
			break
		}
	}
	fr.disj, fr.live = disj, live

	nCons, nTerms := len(st.cons), len(st.terms)
	ch := st.frame(k + 1)

	// Decide: branch on a disjunction first (fewest alternatives first —
	// the most constrained choice point); otherwise split a domain.
	if len(disj) > 0 {
		pick := 0
		for i := 1; i < len(disj); i++ {
			if len(disj[i].fs) < len(disj[pick].fs) {
				pick = i
			}
		}
		g := disj[pick]
		fr.save(d)
		for _, alt := range g.fs {
			ch.disj = append(append(ch.disj[:0], disj[:pick]...), disj[pick+1:]...)
			status, model := st.search(k+1, alt)
			if status == Sat || status == Unknown {
				return status, model
			}
			fr.restore(d)
			st.cons, st.terms = st.cons[:nCons], st.terms[:nTerms]
		}
		s.stats.Conflicts++
		return Unsat, nil
	}

	// No disjunctions left. Find an unfixed variable appearing in some
	// constraint; if none, the store is bounds-consistent and every
	// constraint will be verified on the all-lower-bound assignment or
	// needs a split.
	v := pickBranchVar(d, st.cons)
	if v == InvalidVar {
		// All constrained variables fixed: verify and build the model.
		for i := range st.cons {
			if !conSatisfiedFixed(d, &st.cons[i]) {
				s.stats.Conflicts++
				return Unsat, nil
			}
		}
		model := make(map[Var]int64, len(d.lo))
		for i := range d.lo {
			model[Var(i)] = d.lo[i]
		}
		return Sat, model
	}

	// Domain split: [lo, mid] then [mid+1, hi].
	lo, hi := d.lo[v], d.hi[v]
	mid := lo + (hi-lo)/2
	fr.save(d)
	for _, half := range [2]struct {
		lo, hi int64
		moved  bound
	}{{lo, mid, hiOf(v)}, {mid + 1, hi, loOf(v)}} {
		d.lo[v], d.hi[v] = half.lo, half.hi
		st.dirty, st.hasDirty = half.moved, true
		ch.disj = ch.disj[:0]
		status, model := st.search(k+1, nil)
		if status == Sat || status == Unknown {
			return status, model
		}
		fr.restore(d)
		st.cons, st.terms = st.cons[:nCons], st.terms[:nTerms]
	}
	s.stats.Conflicts++
	return Unsat, nil
}

// pickBranchVar selects the unfixed constrained variable with the smallest
// domain (first-fail heuristic), or InvalidVar if all are fixed.
func pickBranchVar(d *domains, cons []lincon) Var {
	best := InvalidVar
	var bestW int64
	for i := range cons {
		for _, t := range cons[i].terms {
			if d.fixed(t.V) {
				continue
			}
			w := d.width(t.V)
			if best == InvalidVar || w < bestW {
				best, bestW = t.V, w
			}
		}
	}
	return best
}
