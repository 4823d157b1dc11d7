// Quickstart: train a tiny character-level LM on synthetic telemetry, write
// three rules (the paper's R1–R3), and watch LeJIT turn the model's free —
// and frequently rule-violating — output into guaranteed-compliant output
// without retraining.
//
// Run with:
//
//	go run ./examples/quickstart
//
// Its output is pinned byte for byte by testdata/transcript.txt (main_test.go).
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro/lejit"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole walkthrough, printing to w.
func run(w io.Writer) error {
	// 1. Declare the record shape: one coarse window (TotalIngress,
	// Congestion) plus the fine-grained ingress vector I[0..4].
	schema := lejit.MustSchema(
		lejit.Field{Name: "TotalIngress", Kind: lejit.Scalar, Lo: 0, Hi: 300},
		lejit.Field{Name: "Congestion", Kind: lejit.Scalar, Lo: 0, Hi: 100},
		lejit.Field{Name: "I", Kind: lejit.Vector, Len: 5, Lo: 0, Hi: 60},
	)

	// 2. Write the rules (paper §2.1, R1–R3).
	rs, err := lejit.ParseRules(`
const BW = 60
const T  = 5
rule r1: forall t in 0..T-1: 0 <= I[t] and I[t] <= BW
rule r2: sum(I) == TotalIngress
rule r3: Congestion > 0 -> max(I) >= BW/2
`, schema)
	if err != nil {
		return err
	}

	// 3. Synthesize a toy training corpus that obeys the rules, and train
	// a small transformer from scratch (a few seconds on a laptop).
	rng := rand.New(rand.NewSource(42))
	corpus := makeCorpus(rng, 800)
	model, err := lejit.NewModel(lejit.ModelConfig{
		Vocab: lejit.TelemetryTokenizer().Size(), Ctx: 40, Dim: 32, Heads: 2, Layers: 2,
	}, 1)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "training a", model.NumParams(), "parameter model from scratch...")
	if _, err := lejit.TrainOnRecords(model, corpus, schema, lejit.TrainConfig{Epochs: 2, Seed: 1}); err != nil {
		return err
	}

	// 4. Build two pipelines over the SAME model: one decodes freely, one
	// enforces the rules Just-In-Time.
	pipe, err := lejit.NewPipeline(model, schema, rs, lejit.WithTemperature(0.9))
	if err != nil {
		return err
	}

	// 5. Impute the paper's running example: TotalIngress=100, Congestion=8.
	known := lejit.Record{"TotalIngress": {100}, "Congestion": {8}}
	fmt.Fprintln(w, "\nimputing I[0..4] for TotalIngress=100, Congestion=8")

	fmt.Fprintln(w, "\n-- vanilla (free sampling) --")
	for i := 0; i < 3; i++ {
		rec, _, err := pipe.Sample(known, rng)
		if err != nil {
			fmt.Fprintln(w, "  (malformed output)")
			continue
		}
		vs, _ := pipe.Violations(rec)
		fmt.Fprintf(w, "  I = %v  violations: %v\n", rec["I"], vs)
	}

	fmt.Fprintln(w, "\n-- LeJIT (solver-guided) --")
	for i := 0; i < 3; i++ {
		rec, stats, err := pipe.Impute(known, rng)
		if err != nil {
			return err
		}
		vs, _ := pipe.Violations(rec)
		fmt.Fprintf(w, "  I = %v  violations: %v  (masked %d steps, %d solver checks)\n",
			rec["I"], vs, stats.MaskedSteps, stats.SolverChecks)
	}
	fmt.Fprintln(w, "\nLeJIT output always satisfies R1-R3; vanilla output usually does not.")
	return nil
}

// makeCorpus draws rule-compliant training records: bursty ingress vectors
// with congestion marks only when a burst occurred.
func makeCorpus(rng *rand.Rand, n int) []lejit.Record {
	recs := make([]lejit.Record, n)
	for i := range recs {
		x := make([]int64, 5)
		var total, maxI int64
		for j := range x {
			if rng.Float64() < 0.25 {
				x[j] = 30 + int64(rng.Intn(31)) // burst
			} else {
				x[j] = int64(rng.Intn(25))
			}
			total += x[j]
			if x[j] > maxI {
				maxI = x[j]
			}
		}
		var cong int64
		if maxI >= 30 && rng.Float64() < 0.8 {
			cong = 1 + int64(rng.Intn(20))
		}
		recs[i] = lejit.Record{"TotalIngress": {total}, "Congestion": {cong}, "I": x}
	}
	return recs
}
