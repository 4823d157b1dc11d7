package lejit

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// quickSchema is a small schema trainable in milliseconds.
func quickSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Field{Name: "Total", Kind: Scalar, Lo: 0, Hi: 40},
		Field{Name: "X", Kind: Vector, Len: 4, Lo: 0, Hi: 10},
	)
}

// quickCorpus builds records satisfying sum(X) == Total.
func quickCorpus(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		x := make([]int64, 4)
		var total int64
		for j := range x {
			x[j] = int64(rng.Intn(11))
			total += x[j]
		}
		recs[i] = Record{"Total": {total}, "X": x}
	}
	return recs
}

func quickModel(t *testing.T, recs []Record) *Model {
	t.Helper()
	m, err := NewModel(ModelConfig{Vocab: TelemetryTokenizer().Size(), Ctx: 24, Dim: 16, Heads: 2, Layers: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainOnRecords(m, recs, quickSchema(t), TrainConfig{Epochs: 1, Seed: 1, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPipelineEndToEnd(t *testing.T) {
	schema := quickSchema(t)
	rng := rand.New(rand.NewSource(5))
	recs := quickCorpus(rng, 150)
	m := quickModel(t, recs)

	rs, err := ParseRules("rule conserve: sum(X) == Total", schema)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(m, schema, rs, WithTemperature(0.9))
	if err != nil {
		t.Fatal(err)
	}

	// Imputation: every output must satisfy the rule exactly.
	for trial := 0; trial < 10; trial++ {
		rec, stats, err := pipe.Impute(Record{"Total": {23}}, rng)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, v := range rec["X"] {
			sum += v
		}
		if sum != 23 {
			t.Fatalf("trial %d: sum %d != 23 (%v)", trial, sum, rec["X"])
		}
		if stats.Tokens == 0 {
			t.Error("no tokens recorded")
		}
		vs, err := pipe.Violations(rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 0 {
			t.Fatalf("violations %v", vs)
		}
	}

	// Unconditional generation also complies.
	rec, _, err := pipe.Generate(rng)
	if err != nil {
		t.Fatal(err)
	}
	if vs, _ := pipe.Violations(rec); len(vs) != 0 {
		t.Fatalf("generate violations %v in %v", vs, rec)
	}
}

func TestPipelineRepurposing(t *testing.T) {
	// The "single LLM to rule them all" property: the same model under two
	// different rule sets produces outputs compliant with each.
	schema := quickSchema(t)
	rng := rand.New(rand.NewSource(6))
	m := quickModel(t, quickCorpus(rng, 120))

	rsA, err := ParseRules("rule conserve: sum(X) == Total", schema)
	if err != nil {
		t.Fatal(err)
	}
	rsB, err := ParseRules("rule lowtotal: Total <= 10\nrule flat: max(X) <= 4", schema)
	if err != nil {
		t.Fatal(err)
	}
	pipeA, err := NewPipeline(m, schema, rsA)
	if err != nil {
		t.Fatal(err)
	}
	pipeB, err := NewPipeline(m, schema, rsB)
	if err != nil {
		t.Fatal(err)
	}
	ra, _, err := pipeA.Generate(rng)
	if err != nil {
		t.Fatal(err)
	}
	if vs, _ := rsA.Violations(ra); len(vs) != 0 {
		t.Fatalf("pipeline A violations %v", vs)
	}
	rb, _, err := pipeB.Generate(rng)
	if err != nil {
		t.Fatal(err)
	}
	if vs, _ := rsB.Violations(rb); len(vs) != 0 {
		t.Fatalf("pipeline B violations %v", vs)
	}
	if rb["Total"][0] > 10 {
		t.Fatalf("rule set B not enforced: Total %d", rb["Total"][0])
	}
}

func TestMineAndEnforce(t *testing.T) {
	schema := quickSchema(t)
	rng := rand.New(rand.NewSource(8))
	recs := quickCorpus(rng, 200)
	rs, err := MineRules(recs, schema, MineOptions{Slack: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("miner found nothing")
	}
	for _, rec := range recs {
		vs, err := rs.Violations(rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) > 0 {
			t.Fatalf("mined rules violated on training data: %v", vs)
		}
	}
}

func TestModelSaveLoadThroughFacade(t *testing.T) {
	schema := quickSchema(t)
	rng := rand.New(rand.NewSource(9))
	m := quickModel(t, quickCorpus(rng, 60))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := ParseRules("rule conserve: sum(X) == Total", schema)
	if _, err := NewPipeline(m2, schema, rs); err != nil {
		t.Fatal(err)
	}
}

func TestInfeasiblePromptDetection(t *testing.T) {
	schema := quickSchema(t)
	rng := rand.New(rand.NewSource(10))
	m := quickModel(t, quickCorpus(rng, 60))
	// Satisfiable rule set (Total < 20 is fine) whose consequent is
	// impossible once the prompt pins Total ≥ 20: sum(X) caps at 40.
	rs, err := ParseRules("rule trap: Total >= 20 -> sum(X) == 41", schema)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(m, schema, rs)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = pipe.Impute(Record{"Total": {25}}, rng)
	if err == nil || !IsInfeasible(err) {
		t.Fatalf("err = %v, want infeasible", err)
	}
	// And the benign prompt still works.
	if _, _, err := pipe.Impute(Record{"Total": {5}}, rng); err != nil {
		t.Fatalf("benign prompt failed: %v", err)
	}
}

func TestDefaultGrammarValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := quickModel(t, quickCorpus(rng, 60))
	noVec := MustSchema(Field{Name: "A", Kind: Scalar, Lo: 0, Hi: 9})
	if _, err := NewPipeline(m, noVec, nil); err == nil {
		t.Error("schema without vector field should need WithGrammar")
	}
	twoVec := MustSchema(
		Field{Name: "A", Kind: Vector, Len: 2, Lo: 0, Hi: 9},
		Field{Name: "B", Kind: Vector, Len: 2, Lo: 0, Hi: 9},
	)
	if _, err := NewPipeline(m, twoVec, nil); err == nil {
		t.Error("schema with two vector fields should need WithGrammar")
	}
}

func TestFormatRecord(t *testing.T) {
	schema := quickSchema(t)
	s, err := FormatRecord(Record{"Total": {23}, "X": {5, 6, 7, 5}}, schema)
	if err != nil {
		t.Fatal(err)
	}
	if s != "23|5,6,7,5\n" {
		t.Errorf("FormatRecord = %q", s)
	}
	if !strings.HasSuffix(s, "\n") {
		t.Error("missing newline")
	}
	if _, err := FormatRecord(Record{"Total": {23}}, schema); err == nil {
		t.Error("missing field should error")
	}
}

func TestWithoutSolverOption(t *testing.T) {
	schema := quickSchema(t)
	rng := rand.New(rand.NewSource(12))
	m := quickModel(t, quickCorpus(rng, 100))
	rs, _ := ParseRules("rule conserve: sum(X) == Total", schema)
	pipe, err := NewPipeline(m, schema, rs, WithoutSolver())
	if err != nil {
		t.Fatal(err)
	}
	// Structural decoding alone will sooner or later break conservation.
	broke := false
	for trial := 0; trial < 20 && !broke; trial++ {
		rec, _, err := pipe.Impute(Record{"Total": {23}}, rng)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, v := range rec["X"] {
			sum += v
		}
		if sum != 23 {
			broke = true
		}
	}
	if !broke {
		t.Error("structure-only decoding never violated conservation in 20 trials (implausible for a 1-epoch model)")
	}
}

func TestPipelineBeamAndBatch(t *testing.T) {
	schema := quickSchema(t)
	rng := rand.New(rand.NewSource(20))
	m := quickModel(t, quickCorpus(rng, 150))
	rs, err := ParseRules("rule conserve: sum(X) == Total", schema)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(m, schema, rs)
	if err != nil {
		t.Fatal(err)
	}

	// Beam decode: compliant and deterministic.
	a, stats, err := pipe.ImputeBeam(Record{"Total": {17}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if vs, _ := pipe.Violations(a); len(vs) != 0 {
		t.Fatalf("beam violations %v", vs)
	}
	if stats.LogProb > 0 {
		t.Errorf("logprob %v > 0", stats.LogProb)
	}
	b, _, err := pipe.ImputeBeam(Record{"Total": {17}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a["X"] {
		if a["X"][i] != b["X"][i] {
			t.Fatalf("beam decode not deterministic: %v vs %v", a["X"], b["X"])
		}
	}

	// Batch decode: all compliant, order preserved.
	prompts := []Record{{"Total": {5}}, {"Total": {23}}, {"Total": {40}}, {"Total": {0}}}
	recs, errs := pipe.ImputeBatch(prompts, 2, 7)
	for i := range prompts {
		if errs[i] != nil {
			t.Fatalf("prompt %d: %v", i, errs[i])
		}
		var sum int64
		for _, v := range recs[i]["X"] {
			sum += v
		}
		if sum != prompts[i]["Total"][0] {
			t.Fatalf("prompt %d: sum %d != %d", i, sum, prompts[i]["Total"][0])
		}
	}
}

func TestPipelineDiagnose(t *testing.T) {
	schema := quickSchema(t)
	rng := rand.New(rand.NewSource(21))
	m := quickModel(t, quickCorpus(rng, 80))
	rs, err := ParseRules(`
rule conserve: sum(X) == Total
rule flat:     max(X) <= 5
`, schema)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(m, schema, rs)
	if err != nil {
		t.Fatal(err)
	}
	// Total=30 needs sum(X)=30 but max(X) ≤ 5 caps the sum at 20.
	_, _, err = pipe.Impute(Record{"Total": {30}}, rng)
	if !IsInfeasible(err) {
		t.Fatalf("err = %v, want infeasible", err)
	}
	culprits, err := pipe.Diagnose(Record{"Total": {30}})
	if err != nil {
		t.Fatal(err)
	}
	if len(culprits) != 2 {
		t.Fatalf("culprits = %v, want both rules", culprits)
	}
}

func TestSimulateTelemetryWith(t *testing.T) {
	recs := SimulateTelemetryWith(SimulatorConfig{
		Racks: 3, WindowsPerRack: 20, Seed: 5, DiurnalAmplitude: 0.5, AnomalyRate: 0.1,
	})
	if len(recs) != 60 {
		t.Fatalf("got %d records, want 60", len(recs))
	}
	schema := TelemetrySchema()
	for i, rec := range recs {
		if err := schema.Validate(rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	// The plain helper agrees with the zero-knob config.
	a := SimulateTelemetry(2, 10, 9)
	b := SimulateTelemetryWith(SimulatorConfig{Racks: 2, WindowsPerRack: 10, Seed: 9})
	for i := range a {
		sa, err := FormatRecord(a[i], schema)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := FormatRecord(b[i], schema)
		if err != nil {
			t.Fatal(err)
		}
		if sa != sb {
			t.Fatalf("record %d differs between helpers", i)
		}
	}
}
