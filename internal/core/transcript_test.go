package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/pack"
	"repro/internal/prefixcache"
	"repro/internal/race"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// updateTranscripts rewrites testdata/transcript_*.txt from the current
// decoder instead of comparing against them. A re-pin must say which masks
// or bytes moved, and why.
var updateTranscripts = flag.Bool("update", false, "rewrite testdata/transcript_*.txt from the current decoder")

// transcriptSeed is the batch seed of every transcript: record i decodes
// with rand.NewSource(core.MixSeed(transcriptSeed, i)) on every path.
const transcriptSeed = 11

// transcriptMethod is one decoding method as the transcripts exercise it:
// its solo entry point on an engine, and the same method as a DecodeBatch
// argument.
type transcriptMethod struct {
	name  string
	solo  func(e *core.Engine, known rules.Record, rng *rand.Rand) (core.Result, error)
	batch core.Method
}

var transcriptMethods = []transcriptMethod{
	{"guided", func(e *core.Engine, known rules.Record, rng *rand.Rand) (core.Result, error) {
		if known == nil {
			return e.Generate(rng)
		}
		return e.Impute(known, rng)
	}, core.MethodGuided},
	{"vanilla", (*core.Engine).Vanilla, core.MethodFree},
	{"rejection", (*core.Engine).Rejection, core.MethodRejection},
	{"posthoc", (*core.Engine).PostHoc, core.MethodPostHoc},
}

// stepTracer collects the TraceSteps of the engines it is installed on,
// from any number of goroutines.
type stepTracer struct {
	mu    sync.Mutex
	steps []core.TraceStep
}

func (tr *stepTracer) hook(s core.TraceStep) {
	tr.mu.Lock()
	tr.steps = append(tr.steps, s)
	tr.mu.Unlock()
}

// take returns the collected steps and starts a new collection.
func (tr *stepTracer) take() []core.TraceStep {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := tr.steps
	tr.steps = nil
	return s
}

// stepDigest renders one guided step as the FNV-32a digest of its
// admissible token set, with a trailing "!" when the step was forced (one
// admissible token).
func stepDigest(s core.TraceStep) string {
	h := fnv.New32a()
	for _, id := range s.Admissible {
		fmt.Fprintf(h, "%d,", id)
	}
	forced := ""
	if len(s.Admissible) == 1 {
		forced = "!"
	}
	return fmt.Sprintf("%08x%s", h.Sum32(), forced)
}

// maskLine renders one solo decode's steps in order.
func maskLine(steps []core.TraceStep) string {
	ds := make([]string, len(steps))
	for i, s := range steps {
		ds[i] = stepDigest(s)
	}
	return strings.Join(ds, " ")
}

// maskSetLine renders a batch's steps, which interleave across lanes and
// groups, as an order-free digest: every step keyed by its slot and digit
// prefix, sorted, hashed.
func maskSetLine(steps []core.TraceStep) string {
	keys := make([]string, len(steps))
	for i, s := range steps {
		keys[i] = fmt.Sprintf("%s[%d]%s:%s", s.Field, s.Index, s.Prefix, stepDigest(s))
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	return fmt.Sprintf("%d steps, fnv %016x", len(keys), h.Sum64())
}

// outcomeLine renders one decode outcome: the record's line (or "-"), the
// error text (or "-"), and every Stats field.
func outcomeLine(c *pack.Compiled, res core.Result, err error) string {
	line := "-"
	if res.Rec != nil {
		l, ferr := c.FormatRecord(res.Rec)
		if ferr != nil {
			l = "unrenderable: " + ferr.Error()
		}
		line = fmt.Sprintf("%q", l)
	}
	errText := "-"
	if err != nil {
		errText = fmt.Sprintf("%q", err.Error())
	}
	return fmt.Sprintf("rec=%s err=%s stats=%+v", line, errText, res.Stats)
}

// transcriptPrompts returns the transcripts' seven requests: every third
// one unconditional generation, the rest imputation prompts drawn across the
// pack's examples.
func transcriptPrompts(def pack.Definition, recs []rules.Record) []rules.Record {
	const n = 7
	examples := def.Examples
	if len(examples) == 0 {
		examples = recs
	}
	prompts := make([]rules.Record, n)
	for i := range prompts {
		if i%3 != 0 {
			prompts[i] = def.PromptOf(examples[i*len(examples)/n])
		}
	}
	return prompts
}

// writeTranscript decodes prompts with every method — solo on a fresh clone
// per record, and through DecodeBatch at workers 1 and 4 — on c's engine
// with a tracer installed, and appends the outcomes to b. Guided solo
// decodes add their per-step mask digests, guided batches their order-free
// mask digest.
func writeTranscript(t *testing.T, b *bytes.Buffer, c *pack.Compiled, prompts []rules.Record) {
	t.Helper()
	eng, tr := tracedEngine(t, c)
	for _, m := range transcriptMethods {
		for i, p := range prompts {
			clone, err := eng.Clone()
			if err != nil {
				t.Fatal(err)
			}
			tr.take()
			res, err := m.solo(clone, p, rand.New(rand.NewSource(core.MixSeed(transcriptSeed, i))))
			fmt.Fprintf(b, "solo %s %d: %s\n", m.name, i, outcomeLine(c, res, err))
			if steps := tr.take(); m.name == "guided" {
				fmt.Fprintf(b, "solo %s %d masks: %s\n", m.name, i, maskLine(steps))
			}
		}
		for _, workers := range []int{1, 4} {
			tr.take()
			for i, r := range eng.DecodeBatch(prompts, workers, transcriptSeed, m.batch) {
				fmt.Fprintf(b, "batch/w%d %s %d: %s\n", workers, m.name, i, outcomeLine(c, r.Res, r.Err))
			}
			if steps := tr.take(); m.name == "guided" {
				fmt.Fprintf(b, "batch/w%d %s masks: %s\n", workers, m.name, maskSetLine(steps))
			}
		}
	}
}

// transcriptBeamWidth is the beam width of the transcripts' BeamImpute lines.
const transcriptBeamWidth = 4

// writeBeamTranscript decodes prompts with BeamImpute on c's engine itself —
// the one decode that runs on the root engine's solver instead of a clone's —
// and appends the outcomes to b.
func writeBeamTranscript(t *testing.T, b *bytes.Buffer, c *pack.Compiled, prompts []rules.Record) {
	t.Helper()
	for i, p := range prompts {
		res, err := c.Engine.BeamImpute(p, transcriptBeamWidth)
		fmt.Fprintf(b, "beam%d %d: %s\n", transcriptBeamWidth, i, outcomeLine(c, res, err))
	}
}

// tracedEngine rebuilds c's engine with a tracer installed.
func tracedEngine(t *testing.T, c *pack.Compiled) (*core.Engine, *stepTracer) {
	t.Helper()
	tr := &stepTracer{}
	cfg := c.Engine.Configuration()
	cfg.TraceHook = tr.hook
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, tr
}

// transcriptNN builds an untrained transformer for a pack's vocabulary: the
// weights are a fixed function of seed, so its logits are as reproducible as
// a trained model's.
func transcriptNN(t *testing.T, vocabSize, ctx int) *nn.Model {
	t.Helper()
	m, err := nn.New(nn.Config{Vocab: vocabSize, Ctx: ctx, Dim: 16, Heads: 2, Layers: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// compileWith compiles def with lm as its LM.
func compileWith(t *testing.T, def pack.Definition, lm core.LM) *pack.Compiled {
	t.Helper()
	def.LM = lm
	c, err := pack.Compile(def)
	if err != nil {
		t.Fatalf("%s: %v", def.Name, err)
	}
	return c
}

// checkTranscript compares got with testdata/name, or rewrites the file
// under -update.
func checkTranscript(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateTranscripts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/core -run TestTranscripts -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
			if shown++; shown == 5 {
				break
			}
		}
	}
}

// transcriptSetNames names shippedRuleSets' entries, in its order.
var transcriptSetNames = []string{"telemetry-impute", "telemetry-synthesis", "routercfg", "fincompliance"}

// TestTranscripts pins, for every shipped rule set on the uniform LM and on
// a seeded transformer, what each decoding method emits for fixed prompts
// and seeds — solo and through DecodeBatch at n = 7, workers 1 and 4: the
// rendered record or error text, every Stats field, and for guided decodes
// the admissible set and forced flag of every step; and BeamImpute's bytes,
// error text and Stats at width 4 on the root engine. A change that moves
// every path the same way, or that over-prunes a mask at a step whose
// sampled token survives, fails here. The files are regenerated only by
// -update.
func TestTranscripts(t *testing.T) {
	defs, recs := shippedRuleSets(t)
	for k, def := range defs {
		name := transcriptSetNames[k]
		t.Run(name, func(t *testing.T) {
			prompts := transcriptPrompts(def, recs)
			var b bytes.Buffer
			tok, err := def.Tokenizer()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "# %s, uniform LM\n", name)
			uniform := compileWith(t, def, pack.UniformLM(tok.Size()))
			writeTranscript(t, &b, uniform, prompts)
			writeBeamTranscript(t, &b, uniform, prompts)
			fmt.Fprintf(&b, "# %s, seeded transformer (dim 16, 2 layers, Ctx 96)\n", name)
			seeded := compileWith(t, def, core.WrapNN(transcriptNN(t, tok.Size(), 96)))
			writeTranscript(t, &b, seeded, prompts)
			writeBeamTranscript(t, &b, seeded, prompts)
			checkTranscript(t, "transcript_"+name+".txt", b.Bytes())
		})
	}
}

// slotPatternLM has learned the record format and one value: at every slot
// it strongly prefers two '5' digits and then the slot's separator, and EOS
// after the last one. Its free samples are therefore mostly well-formed
// records of 55s, a few malformed, and (under the telemetry rules) every
// well-formed one violating.
type slotPatternLM struct {
	tok   *vocab.Tokenizer
	slots []core.Slot
}

func (l slotPatternLM) VocabSize() int { return l.tok.Size() }
func (l slotPatternLM) NewSession() core.Session {
	return &slotPatternSession{lm: l, logits: make([]float32, l.tok.Size())}
}

type slotPatternSession struct {
	lm      slotPatternLM
	logits  []float32
	slot    int
	ndigits int
}

func (s *slotPatternSession) Append(tok int) error {
	if !s.lm.tok.IsChar(tok) {
		return nil
	}
	if c := s.lm.tok.Char(tok); c >= '0' && c <= '9' {
		s.ndigits++
	} else {
		s.slot++
		s.ndigits = 0
	}
	return nil
}

func (s *slotPatternSession) Logits() []float32 {
	clear(s.logits)
	switch {
	case s.slot >= len(s.lm.slots):
		s.logits[vocab.EOS] = 6
	case s.ndigits < 2:
		s.logits[s.lm.tok.ID('5')] = 6
	default:
		s.logits[s.lm.tok.ID(s.lm.slots[s.slot].Sep)] = 6
	}
	return s.logits
}

// TestTranscriptEdges pins the baselines' limits on the telemetry impute
// rules: a format-aware LM whose well-formed samples all violate the rules
// (rejection exhausts MaxAttempts, post-hoc repairs), and a transformer whose
// context ends three tokens past the longest prompt, so free samples run
// into the NN context limit and vanilla exhausts MaxRetries.
func TestTranscriptEdges(t *testing.T) {
	if race.Enabled {
		// Its post-hoc repairs are solver searches the race detector slows
		// from about 3 s to about 90 s; TestTranscripts still runs every
		// path, four concurrent lane groups included, under it.
		t.Skip("solver-bound; pinned by the non-race run")
	}
	defs, recs := shippedRuleSets(t)
	def := defs[0]
	prompts := transcriptPrompts(def, recs)
	tok, err := def.Tokenizer()
	if err != nil {
		t.Fatal(err)
	}
	slots, err := def.Slots()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# telemetry-impute, slot-pattern LM\n")
	writeTranscript(t, &b, compileWith(t, def, slotPatternLM{tok: tok, slots: slots}), prompts)

	longest := 0
	for _, p := range prompts {
		ids := 0
		for _, sl := range slots {
			vs, ok := p[sl.Field]
			if !ok {
				break
			}
			ids += len(fmt.Sprint(vs[sl.Index])) + 1
		}
		if ids > longest {
			longest = ids
		}
	}
	ctx := longest + 1 + 3 // BOS, the prompt, three sampled tokens
	fmt.Fprintf(&b, "# telemetry-impute, seeded transformer (Ctx %d)\n", ctx)
	writeTranscript(t, &b, compileWith(t, def, core.WrapNN(transcriptNN(t, tok.Size(), ctx))), prompts)
	got := b.String()
	for _, want := range []string{
		"rejection sampling exhausted 500 attempts",
		"free sampling produced no well-formed record in 9 attempts",
		"Repaired:true",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("the edge transcript never shows %q", want)
		}
	}
	checkTranscript(t, "transcript_edges.txt", b.Bytes())
}

// guidedLines decodes prompts alone with the guided method on c's engine,
// one line per record: the rendered record or error text, and every step's
// mask digest and forced flag. Unlike a transcript it leaves out Stats,
// whose solver counters may depend on the order the rules were given in.
func guidedLines(t *testing.T, c *pack.Compiled, prompts []rules.Record) []string {
	t.Helper()
	eng, tr := tracedEngine(t, c)
	lines := make([]string, len(prompts))
	for i, p := range prompts {
		clone, err := eng.Clone()
		if err != nil {
			t.Fatal(err)
		}
		tr.take()
		res, err := transcriptMethods[0].solo(clone, p, rand.New(rand.NewSource(core.MixSeed(transcriptSeed, i))))
		lines[i] = fmt.Sprintf("%s masks: %s", outcomeLine(c, core.Result{Rec: res.Rec}, err), maskLine(tr.take()))
	}
	return lines
}

// TestRuleOrderLeavesMasks is a metamorphic property of the mask: the order
// in which a rule set lists its rules, or a rule its conjuncts, is not part
// of its meaning, so for every shipped rule set, on the uniform LM and the
// seeded transformer, the rules reversed, the rules in a fixed shuffle, and
// every conjunction's operands reversed must give the transcripts' prompts
// and seeds the same admissible sets, forced flags and bytes at every step.
func TestRuleOrderLeavesMasks(t *testing.T) {
	defs, recs := shippedRuleSets(t)
	ands := 0
	for k, def := range defs {
		rs, err := rules.ParseRuleSet(def.RuleText, def.Schema)
		if err != nil {
			t.Fatal(err)
		}
		n := len(rs.Rules)
		orders := map[string][]rules.Rule{"reversed": make([]rules.Rule, n), "shuffled": make([]rules.Rule, n), "conjuncts reversed": make([]rules.Rule, n)}
		for i, j := range rand.New(rand.NewSource(5)).Perm(n) {
			orders["reversed"][i] = rs.Rules[n-1-i]
			orders["shuffled"][i] = rs.Rules[j]
			orders["conjuncts reversed"][i] = rules.Rule{Name: rs.Rules[i].Name, Body: reverseConjuncts(rs.Rules[i].Body, &ands)}
		}
		tok, err := def.Tokenizer()
		if err != nil {
			t.Fatal(err)
		}
		prompts := transcriptPrompts(def, recs)
		for _, lm := range []core.LM{pack.UniformLM(tok.Size()), core.WrapNN(transcriptNN(t, tok.Size(), 96))} {
			want := guidedLines(t, compileWith(t, def, lm), prompts)
			for name, order := range orders {
				permuted := def
				permuted.RuleText = (&rules.RuleSet{Schema: rs.Schema, Consts: rs.Consts, Rules: order}).String()
				got := guidedLines(t, compileWith(t, permuted, lm), prompts)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s, %T, rules %s, record %d:\n got  %s\n want %s", transcriptSetNames[k], lm, name, i, got[i], want[i])
					}
				}
			}
		}
	}
	if ands == 0 {
		t.Fatal("no shipped rule has a conjunction of two or more operands to reverse")
	}
}

// reverseConjuncts returns a copy of n in which every conjunction lists its
// operands in reverse order, counting in *ands those with two or more.
func reverseConjuncts(n rules.Node, ands *int) rules.Node {
	switch n := n.(type) {
	case *rules.AndNode:
		kids := make([]rules.Node, len(n.Kids))
		for i, kid := range n.Kids {
			kids[len(kids)-1-i] = reverseConjuncts(kid, ands)
		}
		if len(kids) > 1 {
			*ands++
		}
		return &rules.AndNode{Kids: kids}
	case *rules.OrNode:
		kids := make([]rules.Node, len(n.Kids))
		for i, kid := range n.Kids {
			kids[i] = reverseConjuncts(kid, ands)
		}
		return &rules.OrNode{Kids: kids}
	case *rules.NotNode:
		return &rules.NotNode{Kid: reverseConjuncts(n.Kid, ands)}
	case *rules.ImpliesNode:
		return &rules.ImpliesNode{A: reverseConjuncts(n.A, ands), B: reverseConjuncts(n.B, ands)}
	case *rules.QuantNode:
		q := *n
		q.Body = reverseConjuncts(n.Body, ands)
		return &q
	}
	return n
}

// TestIdenticalReloadLeavesOutput is a metamorphic property of reload: for
// every shipped rule set on the seeded transformer, reloading a registered
// pack with the rule text it already serves keeps its epoch and takes the
// next generation, and the transcripts' prompts then decode, with every
// method, to the same lines — bytes, errors and every Stats field. It runs
// on a registry without a prefix cache, and on one with a cache after a
// warming pass: a warm cache is at its fixed point (see
// TestRepeatedBatchSettlesCache), and the same epoch keeps its entries.
func TestIdenticalReloadLeavesOutput(t *testing.T) {
	defs, recs := shippedRuleSets(t)
	for _, cacheBytes := range []int64{0, 8 << 20} {
		for k, def := range defs {
			tok, err := def.Tokenizer()
			if err != nil {
				t.Fatal(err)
			}
			c := compileWith(t, def, core.WrapNN(transcriptNN(t, tok.Size(), 96)))
			reg := pack.NewRegistry(cacheBytes)
			if err := reg.Register(c); err != nil {
				t.Fatal(err)
			}
			prompts := transcriptPrompts(def, recs)
			decode := func() []string {
				cur, _ := reg.Get(def.Name)
				var lines []string
				for _, m := range transcriptMethods {
					for i, r := range cur.Engine.DecodeBatch(prompts, 1, transcriptSeed, m.batch) {
						lines = append(lines, fmt.Sprintf("%s %d: %s", m.name, i, outcomeLine(cur, r.Res, r.Err)))
					}
				}
				return lines
			}
			if cacheBytes > 0 {
				decode()
			}
			want := decode()
			next, err := reg.Reload(def.Name, def.RuleText)
			if err != nil {
				t.Fatal(err)
			}
			if next.Epoch != c.Epoch || next.Generation != c.Generation+1 {
				t.Fatalf("%s: reload gave epoch %x generation %d, want epoch %x generation %d",
					transcriptSetNames[k], next.Epoch, next.Generation, c.Epoch, c.Generation+1)
			}
			for i, got := range decode() {
				if got != want[i] {
					t.Errorf("%s (cache %d B) after an identical reload:\n got  %s\n want %s", transcriptSetNames[k], cacheBytes, got, want[i])
				}
			}
		}
	}
}

// TestRepeatedBatchSettlesCache: decoding one batch again and again on an
// engine with a prefix cache reaches its fixed point after one pass. For
// every shipped rule set on the seeded transformer and every method, the
// second pass captures no snapshot, and the third decodes to the second's
// lines — bytes, errors and every Stats field, hits and captures included.
func TestRepeatedBatchSettlesCache(t *testing.T) {
	defs, recs := shippedRuleSets(t)
	for k, def := range defs {
		tok, err := def.Tokenizer()
		if err != nil {
			t.Fatal(err)
		}
		c := compileWith(t, def, core.WrapNN(transcriptNN(t, tok.Size(), 96)))
		c.Engine.SetPrefixCache(prefixcache.New(8 << 20))
		prompts := transcriptPrompts(def, recs)
		pass := func() (lines []string, captures int) {
			for _, m := range transcriptMethods {
				for i, r := range c.Engine.DecodeBatch(prompts, 1, transcriptSeed, m.batch) {
					lines = append(lines, fmt.Sprintf("%s %d: %s", m.name, i, outcomeLine(c, r.Res, r.Err)))
					captures += r.Res.Stats.PrefixCaptures
				}
			}
			return lines, captures
		}
		pass()
		second, captures := pass()
		if captures != 0 {
			t.Errorf("%s: the second pass of an identical batch captured %d snapshots", transcriptSetNames[k], captures)
		}
		third, _ := pass()
		for i := range third {
			if third[i] != second[i] {
				t.Errorf("%s: third pass differs from the second:\n got  %s\n want %s", transcriptSetNames[k], third[i], second[i])
			}
		}
	}
}
