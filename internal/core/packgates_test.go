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
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/pack"
	"repro/internal/prefixcache"
	"repro/internal/race"
	"repro/internal/rules"
	"repro/internal/smt"
)

// shippedRuleSets returns the telemetry pack under the benchmark's impute and
// synthesis rules (mined from its tiny-scale corpus) and the other two
// shipped packs, each with a uniform LM, plus the telemetry training records
// the impute prompts are drawn from.
func shippedRuleSets(t *testing.T) ([]pack.Definition, []rules.Record) {
	t.Helper()
	ws := dataset.Generate(dataset.Config{Racks: 12, WindowsPerRack: 30, Seed: 1})
	train, _ := dataset.Split(ws, 10, 2)
	recs := dataset.Records(train)
	mine := func(fields []string) string {
		rs, err := mining.Mine(recs, dataset.Schema(), mining.Config{Slack: 2, Coeffs: []int64{1, 2, 3}, Fields: fields})
		if err != nil {
			t.Fatal(err)
		}
		return rs.String()
	}
	return []pack.Definition{
		pack.TelemetryDefinition(nil, mine(nil), 0.9, nil),
		pack.TelemetryDefinition(nil, mine(dataset.CoarseFields()), 0.9, nil),
		pack.RouterCfgDefinition(nil),
		pack.FinComplianceDefinition(nil),
	}, recs
}

// TestSharedRulesModelMatchesLaneCheck gates the shared rules-only witness:
// for the telemetry impute and synthesis rules and each shipped pack, the
// feasibility Check an empty-prompt lane used to run on a clone — fresh, and
// again after the clone has decoded records — returns exactly the model the
// root engine shares. Tokens could not move if it did not (every oracle
// answer is exact), but per-record solver counters would.
func TestSharedRulesModelMatchesLaneCheck(t *testing.T) {
	defs, _ := shippedRuleSets(t)
	for _, def := range defs {
		c, err := pack.Compile(def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		shared := c.Engine.SharedRulesModel()
		if shared == nil {
			t.Fatalf("%s: the root engine shares no rules-only model", def.Name)
		}
		clone, err := c.Engine.Clone()
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			r := clone.EmptyPromptCheck()
			got := make([]int64, len(r.Model))
			for v, x := range r.Model {
				got[v] = x
			}
			if !reflect.DeepEqual(got, shared) {
				t.Errorf("%s round %d: a clone's empty-prompt Check found %v, the shared model is %v", def.Name, round, got, shared)
			}
			for i := int64(0); i < 2; i++ {
				if _, err := clone.Generate(rand.New(rand.NewSource(i))); err != nil {
					t.Fatalf("%s: %v", def.Name, err)
				}
			}
		}
	}
}

// TestCloneInheritsFingerprint: a clone takes its parent's fingerprint
// instead of hashing the rule set again, which is sound only while that is
// what ruleFingerprint computes from the clone's own config. The Set*
// methods write config fields the fingerprint does not read, so it still is
// after both.
func TestCloneInheritsFingerprint(t *testing.T) {
	defs, _ := shippedRuleSets(t)
	for _, def := range defs {
		c, err := pack.Compile(def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		check := func(when string) {
			clone, err := c.Engine.Clone()
			if err != nil {
				t.Fatal(err)
			}
			want := core.RuleFingerprint(clone.Configuration())
			if got := clone.Fingerprint(); got != want || got != c.Engine.Fingerprint() {
				t.Errorf("%s %s: clone fingerprint %016x, parent %016x, recomputed %016x", def.Name, when, got, c.Engine.Fingerprint(), want)
			}
		}
		check("fresh")
		c.Engine.SetPrefixCache(prefixcache.New(1 << 20))
		c.Engine.SetSolverBudget(1000, time.Second)
		check("after SetPrefixCache and SetSolverBudget")
	}
}

// TestCloneCompilesNothing is the clone's cost gate. On every shipped rule
// set a fresh clone's first rules-only Check is answered from the root's
// rules-only base store, building none, and on the telemetry impute rules
// (428) Engine.Clone allocates at most 20 objects: it shares the root's
// program and forks its solver, compiling nothing.
func TestCloneCompilesNothing(t *testing.T) {
	defs, _ := shippedRuleSets(t)
	for k, def := range defs {
		c, err := pack.Compile(def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		clone, err := c.Engine.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if r := clone.EmptyPromptCheck(); r.Status != smt.Sat {
			t.Fatalf("%s: rules-only Check on a clone: %v", def.Name, r.Status)
		}
		if st := clone.SolverStats(); st.BaseBuilds != 0 || st.WarmStarts != 1 {
			t.Errorf("%s: a fresh clone's first rules-only Check built %d base stores and warm-started %d times, want 0 and 1",
				def.Name, st.BaseBuilds, st.WarmStarts)
		}
		if k != 0 || race.Enabled {
			continue // the race detector's instrumentation allocates
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.Engine.Clone(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 20 {
			t.Errorf("%s: Engine.Clone allocates %.0f objects, want ≤ 20", def.Name, allocs)
		}
	}
}

// TestShippedPackMasksMatchSolver checks every guided step's mask on each
// shipped rule set against a reference that shares nothing with the
// engine's oracle — no slot oracle, witness model or repair: a solver of its
// own with the pack's rules compiled, the lane's known values and the values
// it decoded so far asserted, and each candidate's completion ranges probed
// with CheckWith one at a time. 24 requests per rule set, every third
// unconditional, decode as one DecodeRequests batch.
func TestShippedPackMasksMatchSolver(t *testing.T) {
	defs, recs := shippedRuleSets(t)
	for k, def := range defs {
		c, err := pack.Compile(def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		tr := newLaneTracer()
		cfg := c.Engine.Configuration()
		cfg.TraceHook, cfg.FaultHook = tr.trace, tr.fault
		e, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		examples := def.Examples
		if len(examples) == 0 {
			examples = recs
		}
		var reqs []core.BatchRequest
		for i := 0; i < 24; i++ {
			s := int64(i)
			req := core.BatchRequest{Prompt: rules.Record{}, Seed: &s}
			if i%3 != 0 {
				req.Prompt = def.PromptOf(examples[i*len(examples)/24])
			}
			reqs = append(reqs, req)
		}
		out, err := e.DecodeRequests(context.Background(), reqs, 1, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := newSolverRef(t, cfg)
		steps := 0
		for i, r := range out {
			if r.Err != nil {
				t.Fatalf("%s record %d: %v", def.Name, i, r.Err)
			}
			trace := tr.take(reqs[i].Prompt)
			label := fmt.Sprintf("%s record %d", transcriptSetNames[k], i)
			text, _ := replaySteps(t, label, cfg.Tok, cfg.Slots, ref.lane(reqs[i].Prompt), "", trace, ref.admissible)
			if line, _ := c.FormatRecord(r.Res.Rec); !strings.HasSuffix(line, text) {
				t.Errorf("%s: decoded %q, its steps spelled %q", label, line, text)
			}
			if v, err := cfg.Rules.Violations(r.Res.Rec); err != nil || len(v) > 0 {
				t.Errorf("%s: %v violates %v (%v)", label, r.Res.Rec, v, err)
			}
			steps += len(trace)
		}
		t.Logf("%s: %d guided steps checked", transcriptSetNames[k], steps)
	}
}

// solverRef answers a guided step from a solver of its own (see
// TestShippedPackMasksMatchSolver). It follows one lane at a time: lane
// pushes a frame with the lane's known values, and admissible asserts each
// value the lane completes before it probes the next slot.
type solverRef struct {
	t        *testing.T
	cfg      core.Config
	s        *smt.Solver
	b        *rules.Binding
	from     int // slots the lane's prompt covers
	asserted int // decoded values asserted in the lane's frame
}

func newSolverRef(t *testing.T, cfg core.Config) *solverRef {
	s := smt.NewSolver()
	b := rules.Instantiate(s, cfg.Schema)
	f, err := cfg.Rules.CompileAll(b)
	if err != nil {
		t.Fatal(err)
	}
	s.Assert(f)
	s.Push()
	return &solverRef{t: t, cfg: cfg, s: s, b: b}
}

// slotVar is the solver variable of slot i.
func (r *solverRef) slotVar(i int) smt.Var {
	vs, _ := r.b.Vars(r.cfg.Slots[i].Field)
	return vs[r.cfg.Slots[i].Index]
}

// lane starts the reference on a lane with prompt known, in a fresh frame,
// and returns the number of slots the prompt covers.
func (r *solverRef) lane(known rules.Record) int {
	r.s.Pop()
	r.s.Push()
	r.from, r.asserted = 0, 0
	for r.from < len(r.cfg.Slots) && known[r.cfg.Slots[r.from].Field] != nil {
		sl := r.cfg.Slots[r.from]
		r.s.Assert(smt.Eq(smt.V(r.slotVar(r.from)), smt.C(known[sl.Field][sl.Index])))
		r.from++
	}
	return r.from
}

// admissible is replaySteps' reference: the characters that may follow the
// digit prefix in slot, digits ascending and then the separator.
func (r *solverRef) admissible(_ string, slot int, vals []int64, prefix string) string {
	for ; r.asserted < len(vals); r.asserted++ {
		r.s.Assert(smt.Eq(smt.V(r.slotVar(r.from+r.asserted)), smt.C(vals[r.asserted])))
	}
	v := r.slotVar(slot)
	f, _ := r.cfg.Schema.Field(r.cfg.Slots[slot].Field)
	width := len(strconv.FormatInt(f.Hi, 10))
	feasible := func(lo, hi int64) bool {
		res := r.s.CheckWith(smt.Ge(smt.V(v), smt.C(lo)), smt.Le(smt.V(v), smt.C(hi)))
		if res.Status == smt.Unknown {
			r.t.Fatalf("reference probe [%d, %d] gave up: %v", lo, hi, res.Err)
		}
		return res.Status == smt.Sat
	}
	var out []byte
	if len(prefix) < width && prefix != "0" {
		for d := byte('0'); d <= '9'; d++ {
			q, _ := strconv.ParseInt(prefix+string(d), 10, 64)
			n := width - len(prefix) - 1 // digits that may still follow q
			if q == 0 {
				n = 0 // "0" cannot be extended
			}
			for j, scale := 0, int64(1); j <= n; j, scale = j+1, scale*10 {
				if feasible(q*scale, q*scale+scale-1) {
					out = append(out, d)
					break
				}
			}
		}
	}
	if prefix != "" {
		if p, _ := strconv.ParseInt(prefix, 10, 64); feasible(p, p) {
			out = append(out, r.cfg.Slots[slot].Sep)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return string(out)
}

// TestBudgetNeverChangesARecord is the solver budget's metamorphic property:
// a node budget may fail a decode, but never change what it decodes. For
// every shipped rule set and a sweep of Config.MaxNodes, fixed (prompt, seed)
// pairs decoded solo and as one DecodeRequests batch each come back either
// as an error unwrapping to ErrBudget or as exactly the unbudgeted record.
// The sweep as a whole must show both outcomes, or it tested nothing.
func TestBudgetNeverChangesARecord(t *testing.T) {
	const n = 7
	defs, recs := shippedRuleSets(t)
	var budgeted, exact int
	for _, def := range defs {
		c, err := pack.Compile(def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		examples := def.Examples
		if len(examples) == 0 {
			examples = recs
		}
		reqs := make([]core.BatchRequest, n)
		for i := range reqs {
			s := int64(i)
			reqs[i].Seed = &s
			if i%3 != 0 {
				reqs[i].Prompt = def.PromptOf(examples[i*len(examples)/n])
			}
		}
		solo := func(e *core.Engine, req core.BatchRequest) (core.Result, error) {
			clone, err := e.Clone()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(*req.Seed))
			if req.Prompt == nil {
				return clone.GenerateCtx(context.Background(), rng)
			}
			return clone.ImputeCtx(context.Background(), req.Prompt, rng)
		}
		want := make([]rules.Record, n)
		for i, req := range reqs {
			res, err := solo(c.Engine, req)
			if err != nil {
				t.Fatalf("%s record %d unbudgeted: %v", def.Name, i, err)
			}
			want[i] = res.Rec
		}
		judge := func(how string, maxNodes uint64, i int, rec rules.Record, err error) {
			switch {
			case errors.Is(err, core.ErrBudget):
				budgeted++
			case err != nil:
				t.Errorf("%s MaxNodes %d record %d %s: %v, want ErrBudget or the unbudgeted record", def.Name, maxNodes, i, how, err)
			case !reflect.DeepEqual(rec, want[i]):
				t.Errorf("%s MaxNodes %d record %d %s: %v, unbudgeted %v", def.Name, maxNodes, i, how, rec, want[i])
			default:
				exact++
			}
		}
		for _, maxNodes := range []uint64{1, 4, 16, 64, 256, 1024, 4096} {
			cfg := c.Engine.Configuration()
			cfg.MaxNodes = maxNodes
			e, err := core.NewEngine(cfg)
			if err != nil {
				// The root engine's rules-only pre-check runs under the
				// budget too, and may only stop on it. The decodes still
				// run under it: on an engine built without the budget,
				// which SetSolverBudget then writes into its Config.
				if !errors.Is(err, core.ErrBudget) {
					t.Errorf("%s MaxNodes %d: NewEngine: %v, want ErrBudget", def.Name, maxNodes, err)
				}
				if e, err = c.Engine.Clone(); err != nil {
					t.Fatal(err)
				}
				e.SetSolverBudget(maxNodes, 0)
			}
			for i, req := range reqs {
				res, err := solo(e, req)
				judge("solo", maxNodes, i, res.Rec, err)
			}
			out, _ := e.DecodeRequests(context.Background(), reqs, 2, 0, nil)
			for i, r := range out {
				judge("batched", maxNodes, i, r.Res.Rec, r.Err)
			}
		}
	}
	t.Logf("%d decodes stopped on the budget, %d returned the unbudgeted record", budgeted, exact)
	if budgeted == 0 || exact == 0 {
		t.Errorf("the sweep shows %d budget stops and %d exact records; it must show both", budgeted, exact)
	}
}
