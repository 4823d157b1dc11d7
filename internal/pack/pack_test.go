package pack

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// testLM returns a tiny untrained transformer: deterministic, cheap to
// build, and — unlike UniformLM — a BatchLM, so the lock-step path is
// exercised too.
func testLM(t *testing.T, vocabSize int) core.LM {
	t.Helper()
	m, err := nn.New(nn.Config{Vocab: vocabSize, Ctx: 64, Dim: 16, Heads: 2, Layers: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	return core.WrapNN(m)
}

func mustCompile(t *testing.T, def Definition) *Compiled {
	t.Helper()
	c, err := Compile(def)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTelemetrySlotsMatchDirectGrammar(t *testing.T) {
	def := TelemetryDefinition(nil, "", 0.9, nil)
	slots, err := def.Slots()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.TelemetryGrammar(dataset.Schema(), dataset.CoarseFields(), dataset.FineField)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(slots, direct) {
		t.Fatalf("pack grammar %v != core.TelemetryGrammar %v", slots, direct)
	}
	tok, err := def.Tokenizer()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tok.Size(), vocab.Telemetry().Size(); got != want {
		t.Fatalf("pack tokenizer size %d != vocab.Telemetry %d", got, want)
	}
}

// TestTelemetryPackMatchesDirect is the bit-exactness golden: the telemetry
// pack must decode byte-identically to the pre-pack construction path on the
// solo guided path and the lock-step GEMM path.
func TestTelemetryPackMatchesDirect(t *testing.T) {
	schema := dataset.Schema()
	rs, err := rules.ParseRuleSet(`
const BW = 60
rule c4: forall t in 0..4: 0 <= I[t] and I[t] <= BW
rule c5: sum(I) == TotalIngress
rule c6: Congestion > 0 -> max(I) >= BW/2
`, schema)
	if err != nil {
		t.Fatal(err)
	}
	lm := testLM(t, vocab.Telemetry().Size())

	// Direct: the seed construction path, as cmd/lejitd's file mode builds it.
	slots, err := core.TelemetryGrammar(schema, dataset.CoarseFields(), dataset.FineField)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.NewEngine(core.Config{
		LM: lm, Tok: vocab.Telemetry(), Schema: schema,
		Rules: rs, Slots: slots, Mode: core.LeJIT, Temperature: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}

	def := TelemetryDefinition(lm, rs.String(), 0.9, nil)
	pk := mustCompile(t, def)
	if pk.Epoch == direct.Fingerprint() {
		t.Fatal("pack epoch should differ from the unnamed engine's (pack name is fingerprinted)")
	}

	prompts := []rules.Record{
		{"TotalIngress": {120}, "Congestion": {40}, "Retrans": {10}, "Egress": {80}, "Conns": {12}},
		{"TotalIngress": {30}, "Congestion": {0}, "Retrans": {0}, "Egress": {20}, "Conns": {4}},
		{"TotalIngress": {200}, "Congestion": {5}, "Retrans": {2}, "Egress": {150}, "Conns": {20}},
		{"TotalIngress": {75}, "Congestion": {12}, "Retrans": {3}, "Egress": {60}, "Conns": {9}},
	}
	paths := []struct {
		name string
		run  func(e *core.Engine) []rules.Record
	}{
		{"solo", func(e *core.Engine) []rules.Record {
			out := make([]rules.Record, len(prompts))
			for i, p := range prompts {
				res, err := e.DecodeRequests(context.Background(), []core.BatchRequest{{Prompt: p}}, 1, int64(100+i), nil)
				if err != nil || res[0].Err != nil {
					t.Fatalf("solo decode %d: %v %v", i, err, res[0].Err)
				}
				out[i] = res[0].Res.Rec
			}
			return out
		}},
		{"lockstep", func(e *core.Engine) []rules.Record {
			reqs := make([]core.BatchRequest, len(prompts))
			for i, p := range prompts {
				reqs[i] = core.BatchRequest{Prompt: p}
			}
			res, err := e.DecodeRequests(context.Background(), reqs, 2, 42, nil)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]rules.Record, len(prompts))
			for i := range res {
				if res[i].Err != nil {
					t.Fatalf("lockstep decode %d: %v", i, res[i].Err)
				}
				out[i] = res[i].Res.Rec
			}
			return out
		}},
	}
	for _, path := range paths {
		want := path.run(direct)
		got := path.run(pk.Engine)
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("%s path, record %d: pack %v != direct %v", path.name, i, got[i], want[i])
			}
		}
	}
}

func TestBuiltinExampleCorporaComply(t *testing.T) {
	for _, def := range []Definition{RouterCfgDefinition(nil), FinComplianceDefinition(nil)} {
		rs, err := rules.ParseRuleSet(def.RuleText, def.Schema)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		if len(def.Examples) == 0 {
			t.Fatalf("%s: no examples", def.Name)
		}
		for i, rec := range def.Examples {
			if err := def.Schema.Validate(rec); err != nil {
				t.Fatalf("%s example %d: %v", def.Name, i, err)
			}
			viol, err := rs.Violations(rec)
			if err != nil {
				t.Fatalf("%s example %d: %v", def.Name, i, err)
			}
			if len(viol) > 0 {
				t.Fatalf("%s example %d violates: %v (%v)", def.Name, i, viol, rec)
			}
		}
	}
}

// TestDomainPacksDecodeEndToEnd compiles both new packs and decodes prompts
// from their example corpora: every output must be rule-compliant.
func TestDomainPacksDecodeEndToEnd(t *testing.T) {
	for _, def := range []Definition{RouterCfgDefinition(nil), FinComplianceDefinition(nil)} {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			pk := mustCompile(t, def)
			for i := 0; i < 6; i++ {
				prompt := def.PromptOf(def.Examples[i])
				res, err := pk.Engine.DecodeRequests(context.Background(),
					[]core.BatchRequest{{Prompt: prompt}}, 1, int64(i), nil)
				if err != nil {
					t.Fatal(err)
				}
				if res[0].Err != nil {
					t.Fatalf("decode %d (prompt %v): %v", i, prompt, res[0].Err)
				}
				rec := res[0].Res.Rec
				if err := pk.Schema.Validate(rec); err != nil {
					t.Fatalf("decode %d: %v", i, err)
				}
				viol, err := pk.Rules.Violations(rec)
				if err != nil {
					t.Fatal(err)
				}
				if len(viol) > 0 {
					t.Fatalf("decode %d violates: %v (%v)", i, viol, rec)
				}
				if _, err := pk.FormatRecord(rec); err != nil {
					t.Fatalf("decode %d: %v", i, err)
				}
			}
		})
	}
}

func TestCompileRejectsBadPacks(t *testing.T) {
	base := RouterCfgDefinition(nil)
	cases := []struct {
		name  string
		tweak func(*Definition)
	}{
		{"bad name", func(d *Definition) { d.Name = "Bad Name!" }},
		{"no schema", func(d *Definition) { d.Schema = nil }},
		{"bad rules", func(d *Definition) { d.RuleText = "rule x: nonsense ===" }},
		{"unknown rule field", func(d *Definition) { d.RuleText = "rule x: Nope >= 1" }},
		{"unsat rules", func(d *Definition) { d.RuleText = "rule a: NumAcls >= 3\nrule b: NumAcls <= 2" }},
		{"sep outside alphabet", func(d *Definition) { d.Grammar[0].After = '@' }},
		{"grammar field missing", func(d *Definition) { d.Grammar[0].Field = "Nope" }},
		{"noncompliant example", func(d *Definition) {
			d.Examples = []rules.Record{{
				"NumAcls": {1}, "RefAcl": {5, 0, 0, 0}, "PrefixLen": {24, 0, 0, 0}, "Action": {1, 0, 0, 0},
			}}
		}},
	}
	for _, tc := range cases {
		def := RouterCfgDefinition(nil)
		def.Grammar = append([]GrammarField(nil), base.Grammar...)
		tc.tweak(&def)
		if _, err := Compile(def); err == nil {
			t.Errorf("%s: Compile accepted a bad pack", tc.name)
		}
	}
}

func TestTrainLMProducesServableModel(t *testing.T) {
	def := FinComplianceDefinition(nil)
	def.Examples = FinComplianceExamples(16, 3)
	if err := TrainLM(&def, TrainLMConfig{Dim: 16, Epochs: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if def.LM == nil {
		t.Fatal("TrainLM left LM nil")
	}
	if _, ok := def.LM.(core.BatchLM); !ok {
		t.Fatal("trained LM is not a BatchLM")
	}
	pk := mustCompile(t, def)
	prompt := def.PromptOf(def.Examples[0])
	res, err := pk.Engine.DecodeRequests(context.Background(), []core.BatchRequest{{Prompt: prompt}}, 1, 1, nil)
	if err != nil || res[0].Err != nil {
		t.Fatalf("decode on trained LM: %v %v", err, res[0].Err)
	}
	viol, err := pk.Rules.Violations(res[0].Res.Rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) > 0 {
		t.Fatalf("trained-LM decode violates: %v", viol)
	}
}

func TestFromEnginePreservesEngine(t *testing.T) {
	schema := dataset.Schema()
	slots, err := core.TelemetryGrammar(schema, dataset.CoarseFields(), dataset.FineField)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.Config{
		LM: UniformLM(vocab.Telemetry().Size()), Tok: vocab.Telemetry(), Schema: schema,
		Slots: slots, Mode: core.LeJIT,
	})
	if err != nil {
		t.Fatal(err)
	}
	pk, err := FromEngine("default", eng, nil, schema)
	if err != nil {
		t.Fatal(err)
	}
	if pk.Engine != eng {
		t.Fatal("FromEngine must wrap the engine, not rebuild it")
	}
	if pk.Epoch != eng.Fingerprint() {
		t.Fatal("epoch != engine fingerprint")
	}
	if _, err := FromEngine("Bad Name", eng, nil, schema); err == nil {
		t.Fatal("FromEngine accepted a bad name")
	}
}

func TestPacksHaveDistinctEpochs(t *testing.T) {
	epochs := map[uint64]string{}
	for _, def := range []Definition{
		TelemetryDefinition(nil, "", 0.9, nil),
		RouterCfgDefinition(nil),
		FinComplianceDefinition(nil),
	} {
		pk := mustCompile(t, def)
		if prev, dup := epochs[pk.Epoch]; dup {
			t.Fatalf("packs %s and %s share epoch %016x", prev, def.Name, pk.Epoch)
		}
		epochs[pk.Epoch] = def.Name
	}
}

func TestFormatRecordRoundTrip(t *testing.T) {
	def := RouterCfgDefinition(nil)
	pk := mustCompile(t, def)
	line, err := pk.FormatRecord(def.Examples[0])
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d|", def.Examples[0]["NumAcls"][0])
	if line[:len(want)] != want {
		t.Fatalf("line %q does not start with %q", line, want)
	}
	if line[len(line)-1] != '\n' {
		t.Fatalf("line %q not newline-terminated", line)
	}
	if _, err := pk.Tok.EncodeSeq(line); err != nil {
		t.Fatalf("formatted line not encodable by pack tokenizer: %v", err)
	}
}
