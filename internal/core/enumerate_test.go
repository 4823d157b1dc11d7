package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/prefixcache"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// The mask's two claims — every emitted record complies, and the mask
// removes only tokens with no compliant completion — checked by brute force.
// An enumCase is a rule environment small enough that every record of its
// domain product can be judged by rules.RuleSet.Violations, the concrete
// evaluator: no solver, slot oracle, witness model or repair is involved in
// the reference. At every guided step the admissible set must equal the set
// of next characters of the compliant renderings that extend the text
// decoded so far.
type enumCase struct {
	name   string
	fields []rules.Field
	rules  string
}

// enumCases cover a 3-digit domain whose values are rendered in two and in
// three digits, domains with Lo > 0, sum equalities, implications (their
// disjunctions taint the slots they reach until a pinned value decides them)
// and pairwise bounds, which interval propagation alone does not tighten to
// the feasible set.
var enumCases = []enumCase{
	{"sum", []rules.Field{
		{Name: "L", Kind: rules.Scalar, Lo: 95, Hi: 105},
		{Name: "C", Kind: rules.Scalar, Lo: 0, Hi: 3},
		{Name: "X", Kind: rules.Vector, Len: 2, Lo: 0, Hi: 15},
	}, `
rule s1: sum(X) + C == L - 90
rule s2: C >= 2 -> max(X) >= 8
rule s3: X[0] <= X[1] + 4
rule s4: X[1] <= X[0] + 6
`},
	{"chain", []rules.Field{
		{Name: "A", Kind: rules.Scalar, Lo: 2, Hi: 9},
		{Name: "B", Kind: rules.Scalar, Lo: 80, Hi: 130},
		{Name: "D", Kind: rules.Scalar, Lo: 0, Hi: 40},
	}, `
rule c1: B == A + D + 80
rule c2: A >= 6 -> D >= 12
rule c3: D <= 3*A + 10
rule c4: D >= A - 2
`},
	{"series", []rules.Field{
		{Name: "S", Kind: rules.Scalar, Lo: 0, Hi: 100},
		{Name: "G", Kind: rules.Scalar, Lo: 1, Hi: 4},
		{Name: "V", Kind: rules.Vector, Len: 3, Lo: 0, Hi: 6},
	}, `
rule v1: sum(V) == S
rule v2: G >= 3 -> max(V) >= 5
rule v3: V[0] <= V[1] + 2
rule v4: V[2] <= V[1] + 3
`},
}

// enumRef is an enumCase compiled for the engine, with its reference.
type enumRef struct {
	name      string
	schema    *rules.Schema
	rs        *rules.RuleSet
	slots     []core.Slot
	compliant []rules.Record
	// next maps every proper prefix of a compliant rendering to the
	// characters that follow it in some compliant rendering, sorted.
	next map[string]string
}

var (
	enumOnce sync.Once
	enumRefs []*enumRef
	enumErr  error
)

// enumerated returns every enumCase's reference, built once per test binary.
func enumerated(tb testing.TB) []*enumRef {
	tb.Helper()
	enumOnce.Do(func() {
		for _, c := range enumCases {
			r, err := buildEnumRef(c)
			if err != nil {
				enumErr = fmt.Errorf("%s: %w", c.name, err)
				return
			}
			enumRefs = append(enumRefs, r)
		}
	})
	if enumErr != nil {
		tb.Fatal(enumErr)
	}
	return enumRefs
}

// buildEnumRef judges every record of c's domain product.
func buildEnumRef(c enumCase) (*enumRef, error) {
	schema, err := rules.NewSchema(c.fields...)
	if err != nil {
		return nil, err
	}
	rs, err := rules.ParseRuleSet(c.rules, schema)
	if err != nil {
		return nil, err
	}
	r := &enumRef{name: c.name, schema: schema, rs: rs}
	var lo, hi []int64
	rec := rules.Record{}
	for _, f := range schema.Fields() {
		for i := 0; i < f.Len; i++ {
			r.slots = append(r.slots, core.Slot{Field: f.Name, Index: i, Sep: ','})
			lo, hi = append(lo, f.Lo), append(hi, f.Hi)
		}
		rec[f.Name] = make([]int64, f.Len)
	}
	r.slots[len(r.slots)-1].Sep = '\n'
	next := map[string]map[byte]bool{}
	vals := append([]int64(nil), lo...)
	for {
		for i, s := range r.slots {
			rec[s.Field][s.Index] = vals[i]
		}
		v, err := rs.Violations(rec)
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			cp := rules.Record{}
			for f, vs := range rec {
				cp[f] = append([]int64(nil), vs...)
			}
			r.compliant = append(r.compliant, cp)
			text := r.render(cp, len(r.slots))
			for i := 0; i < len(text); i++ {
				if next[text[:i]] == nil {
					next[text[:i]] = map[byte]bool{}
				}
				next[text[:i]][text[i]] = true
			}
		}
		i := len(vals) - 1
		for ; i >= 0 && vals[i] == hi[i]; i-- {
			vals[i] = lo[i]
		}
		if i < 0 {
			break
		}
		vals[i]++
	}
	if len(r.compliant) == 0 {
		return nil, errors.New("no compliant record")
	}
	r.next = make(map[string]string, len(next))
	for p, cs := range next {
		r.next[p] = sortedChars(cs)
	}
	return r, nil
}

// render is the grammar text of rec's first n slots.
func (r *enumRef) render(rec rules.Record, n int) string {
	var b strings.Builder
	for _, s := range r.slots[:n] {
		b.WriteString(strconv.FormatInt(rec[s.Field][s.Index], 10))
		b.WriteByte(s.Sep)
	}
	return b.String()
}

// covered is how many leading slots known covers.
func (r *enumRef) covered(known rules.Record) int {
	n := 0
	for n < len(r.slots) && known[r.slots[n].Field] != nil {
		n++
	}
	return n
}

// prompt returns a new map holding rec's first k fields.
func (r *enumRef) prompt(rec rules.Record, k int) rules.Record {
	known := rules.Record{}
	for _, f := range r.schema.Fields()[:k] {
		known[f.Name] = append([]int64(nil), rec[f.Name]...)
	}
	return known
}

// randomRecord draws every value uniformly from its domain: a prompt cut
// from it may have no compliant completion.
func (r *enumRef) randomRecord(rng *rand.Rand) rules.Record {
	rec := rules.Record{}
	for _, f := range r.schema.Fields() {
		vs := make([]int64, f.Len)
		for i := range vs {
			vs[i] = f.Lo + rng.Int63n(f.Hi-f.Lo+1)
		}
		rec[f.Name] = vs
	}
	return rec
}

// engine builds the case's LeJIT engine over lm with tr's hooks installed.
func (r *enumRef) engine(tb testing.TB, lm core.LM, tr *laneTracer, cache *prefixcache.Cache) *core.Engine {
	tb.Helper()
	e, err := core.NewEngine(core.Config{
		LM: lm, Tok: vocab.Telemetry(), Schema: r.schema, Rules: r.rs,
		Slots: r.slots, Mode: core.LeJIT, PrefixCache: cache,
		TraceHook: tr.trace, FaultHook: tr.fault,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// check replays one decode's steps against the enumeration, then judges its
// outcome: a record must be the compliant text its steps spelled, and a
// failure is allowed only as ErrInfeasible on a prompt with no compliant
// completion. It returns how many steps it checked.
func (r *enumRef) check(t *testing.T, label string, known rules.Record, steps []core.TraceStep, res core.Result, err error) int {
	t.Helper()
	from := r.covered(known)
	start := r.render(known, from)
	text, _ := replaySteps(t, fmt.Sprintf("%s %s", r.name, label), vocab.Telemetry(), r.slots, from, start, steps,
		func(text string, _ int, _ []int64, _ string) string { return r.next[text] })
	if err != nil {
		if _, ok := r.next[start]; ok || !errors.As(err, new(core.ErrInfeasible)) {
			t.Errorf("%s %s prompt %q: %v; the enumeration continues it with %q", r.name, label, start, err, r.next[start])
		}
		return len(steps)
	}
	if got := r.render(res.Rec, len(r.slots)); got != text {
		t.Errorf("%s %s: decoded %q, its steps spelled %q", r.name, label, got, text)
	}
	if v, verr := r.rs.Violations(res.Rec); verr != nil || len(v) > 0 {
		t.Errorf("%s %s: %q violates %v (%v)", r.name, label, text, v, verr)
	}
	return len(steps)
}

// replaySteps walks one lane's guided steps, their tokens tok's, from its
// prompt's text start (slots [0, from) known). At every step the sorted admissible characters
// must equal want(text decoded so far, slot, the slot values decoded so far,
// the slot's digit prefix); the chosen character then extends the text. It
// returns the text and the decoded values.
func replaySteps(t *testing.T, label string, tok *vocab.Tokenizer, slots []core.Slot, from int, start string, steps []core.TraceStep,
	want func(text string, slot int, vals []int64, prefix string) string) (string, []int64) {
	t.Helper()
	text, slot, digits := start, from, ""
	var vals []int64
	for i, s := range steps {
		if slot >= len(slots) || s.Field != slots[slot].Field || s.Index != slots[slot].Index {
			t.Fatalf("%s step %d: traced %s[%d], the grammar is at slot %d", label, i, s.Field, s.Index, slot)
		}
		if p := s.Prefix; p != digits && !(p == "ε" && digits == "") {
			t.Fatalf("%s step %d: traced prefix %q, the replay has %q", label, i, p, digits)
		}
		got := make(map[byte]bool, len(s.Admissible))
		for _, id := range s.Admissible {
			got[tok.Char(id)] = true
		}
		if g, w := sortedChars(got), want(text, slot, vals, digits); g != w {
			t.Errorf("%s step %d after %q: admissible %q, the reference %q", label, i, text, g, w)
		}
		c := tok.Char(s.Chosen)
		text += string(c)
		if c >= '0' && c <= '9' {
			digits += string(c)
			continue
		}
		v, err := strconv.ParseInt(digits, 10, 64)
		if err != nil {
			t.Fatalf("%s step %d: separator after %q", label, i, digits)
		}
		vals = append(vals, v)
		slot, digits = slot+1, ""
	}
	return text, vals
}

func sortedChars(set map[byte]bool) string {
	cs := make([]byte, 0, len(set))
	for c := range set {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return string(cs)
}

// laneTracer collects guided steps per lane. FaultSite.Known and
// TraceStep.Known are the lane's prompt map, which names the lane when every
// request has a map of its own (an empty one for generation) and every
// decode runs on the test's goroutine: solo, or DecodeRequests with workers
// 1. The hook calls of a batch's lanes interleave, so each lane's last fault
// site is kept apart, and a trace step must follow its own lane's fault site
// at the same slot, one site per step.
type laneTracer struct {
	sites map[uintptr]core.FaultSite
	steps map[uintptr][]core.TraceStep
}

func newLaneTracer() *laneTracer {
	return &laneTracer{sites: map[uintptr]core.FaultSite{}, steps: map[uintptr][]core.TraceStep{}}
}

func laneKey(known rules.Record) uintptr { return reflect.ValueOf(known).Pointer() }

func (tr *laneTracer) fault(s core.FaultSite) error {
	tr.sites[laneKey(s.Known)] = s
	return nil
}

func (tr *laneTracer) trace(s core.TraceStep) {
	k := laneKey(s.Known)
	site, ok := tr.sites[k]
	if !ok {
		panic(fmt.Sprintf("trace step at %s[%d] follows no fault site of its lane", s.Field, s.Index))
	}
	if s.Field != site.Field || s.Index != site.Index {
		panic(fmt.Sprintf("trace step at %s[%d] follows a fault site at %s[%d]", s.Field, s.Index, site.Field, site.Index))
	}
	delete(tr.sites, k)
	tr.steps[k] = append(tr.steps[k], s)
}

// take returns and forgets the steps of the lane whose prompt is known.
func (tr *laneTracer) take(known rules.Record) []core.TraceStep {
	k := laneKey(known)
	s := tr.steps[k]
	delete(tr.steps, k)
	delete(tr.sites, k)
	return s
}

// enumRequests returns n requests, each with a prompt map of its own: lane i
// covers (i + shift) mod (fields) leading fields, cut from a compliant
// record or, every fourth lane, from a random one.
func (r *enumRef) enumRequests(rng *rand.Rand, n, shift int) []core.BatchRequest {
	reqs := make([]core.BatchRequest, n)
	nf := len(r.schema.Fields())
	for i := range reqs {
		src := r.compliant[rng.Intn(len(r.compliant))]
		if i%4 == 3 {
			src = r.randomRecord(rng)
		}
		s := rng.Int63()
		reqs[i] = core.BatchRequest{Prompt: r.prompt(src, (i+shift)%nf), Seed: &s}
	}
	return reqs
}

// checkBatch decodes reqs through DecodeRequests (workers 1) on e, then each
// alone on e, and checks every decode against the enumeration. It returns
// how many steps it checked.
func (r *enumRef) checkBatch(t *testing.T, e *core.Engine, tr *laneTracer, reqs []core.BatchRequest) (steps int, out []core.BatchResult) {
	t.Helper()
	out, err := e.DecodeRequests(context.Background(), reqs, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		steps += r.check(t, fmt.Sprintf("batch lane %d", i), reqs[i].Prompt, tr.take(reqs[i].Prompt), o.Res, o.Err)
	}
	for i, req := range reqs {
		res, err := e.Impute(req.Prompt, rand.New(rand.NewSource(*req.Seed)))
		steps += r.check(t, fmt.Sprintf("solo %d", i), req.Prompt, tr.take(req.Prompt), res, err)
		if (err == nil) != (out[i].Err == nil) || !reflect.DeepEqual(res.Rec, out[i].Res.Rec) {
			t.Errorf("%s request %d: solo %v (%v), batch lane %v (%v)", r.name, i, res.Rec, err, out[i].Res.Rec, out[i].Err)
		}
	}
	return steps, out
}

// TestMaskMatchesEnumeration decodes every enumerated case on the uniform
// LM — solo, and as lanes of DecodeRequests at n = 7 — from prompts covering
// every number of leading fields, and checks every guided step's mask and
// every outcome against the enumeration.
func TestMaskMatchesEnumeration(t *testing.T) {
	steps, decodes := 0, 0
	for _, r := range enumerated(t) {
		tr := newLaneTracer()
		e := r.engine(t, pack.UniformLM(vocab.Telemetry().Size()), tr, nil)
		rng := rand.New(rand.NewSource(3))
		for batch := 0; batch < 8; batch++ {
			n, _ := r.checkBatch(t, e, tr, r.enumRequests(rng, 7, batch))
			steps += n
			decodes += 14
		}
		t.Logf("%s: %d compliant records of the domain product", r.name, len(r.compliant))
	}
	t.Logf("%d decodes, %d guided steps checked", decodes, steps)
	if steps == 0 {
		t.Fatal("no guided step was checked")
	}
}

// FuzzMaskMatchesEnumeration is TestMaskMatchesEnumeration over fuzzed
// cases, prompts and seeds.
func FuzzMaskMatchesEnumeration(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(0))
	f.Add(uint8(1), int64(42), uint8(1))
	f.Add(uint8(2), int64(-9), uint8(2))
	f.Fuzz(func(t *testing.T, which uint8, seed int64, shift uint8) {
		refs := enumerated(t)
		r := refs[int(which)%len(refs)]
		tr := newLaneTracer()
		e := r.engine(t, pack.UniformLM(vocab.Telemetry().Size()), tr, nil)
		r.checkBatch(t, e, tr, r.enumRequests(rand.New(rand.NewSource(seed)), 7, int(shift)))
	})
}

// TestPrefixCacheMasksMatchEnumeration checks prefix-cache witness reuse
// against the enumeration: on a seeded transformer with a prefix cache, one
// batch decoded cold and then again warm — where a full-prompt hit seeds the
// first slot's oracle with the cached witness model instead of a Check —
// must match the enumeration at every step both times.
func TestPrefixCacheMasksMatchEnumeration(t *testing.T) {
	r := enumerated(t)[0]
	tr := newLaneTracer()
	lm := core.WrapNN(transcriptNN(t, vocab.Telemetry().Size(), 48))
	e := r.engine(t, lm, tr, prefixcache.New(8<<20))
	reqs := r.enumRequests(rand.New(rand.NewSource(5)), 7, 1)
	for pass, name := range []string{"cold", "warm"} {
		_, out := r.checkBatch(t, e, tr, reqs)
		hits := 0
		for _, o := range out {
			hits += o.Res.Stats.PrefixHitTokens
		}
		t.Logf("%s pass: %d prefix-hit tokens", name, hits)
		if pass == 1 && hits == 0 {
			t.Error("the warm pass restored nothing from the prefix cache")
		}
	}
}

// TestSlotOracleRefutationsMatchEnumeration walks every state of the first
// generated slot, from every prompt the compliant records cut, with the
// lane's own slot oracle, and checks each admissible set against the
// enumeration. A convex slot's oracle narrows its envelope when the solver
// refutes a range below or above its witnesses (slotOracle.noteUnsat): the
// walks must see that happen, and a bound moved one value too far would drop
// a feasible edge value from a later answer.
func TestSlotOracleRefutationsMatchEnumeration(t *testing.T) {
	walks, narrowed := 0, 0
	for _, r := range enumerated(t) {
		e := r.engine(t, pack.UniformLM(vocab.Telemetry().Size()), newLaneTracer(), nil)
		seen := map[string]bool{}
		for _, rec := range r.compliant {
			for k := 0; k < len(r.schema.Fields()); k++ {
				known := r.prompt(rec, k)
				from := r.covered(known)
				start := r.render(known, from)
				if seen[start] {
					continue
				}
				seen[start] = true
				bounds, envelope, err := e.WalkFirstSlot(known, func(prefix string, digits [10]bool, canEnd bool) {
					got := map[byte]bool{}
					for d, ok := range digits {
						if ok {
							got[byte('0'+d)] = true
						}
					}
					if canEnd {
						got[r.slots[from].Sep] = true
					}
					if g, w := sortedChars(got), r.next[start+prefix]; g != w {
						t.Errorf("%s after %q: admissible %q, the reference %q", r.name, start+prefix, g, w)
					}
				})
				if err != nil {
					t.Fatalf("%s prompt %q: %v", r.name, start, err)
				}
				walks++
				if envelope != bounds {
					narrowed++
				}
			}
		}
	}
	t.Logf("%d slot walks, %d of them narrowed the envelope", walks, narrowed)
	if narrowed == 0 {
		t.Fatal("no walk narrowed a slot oracle's envelope: noteUnsat went untested")
	}
}
