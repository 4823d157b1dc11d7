// Command lejit is the CLI for the LeJIT library: simulate telemetry, mine
// rules, train models, and run guided imputation/generation.
//
// Subcommands:
//
//	lejit simulate -racks 10 -windows 100 -o data.txt
//	lejit mine     -racks 80 -windows 60 [-coarse-only] -o rules.txt
//	lejit train    -racks 80 -windows 60 -epochs 3 -o model.gob
//	lejit impute   -model model.gob -rules rules.txt -n 5 [-mode lejit|vanilla|rejection|posthoc]
//	lejit generate -model model.gob -rules rules.txt -n 5
//	lejit check    -rules rules.txt < data.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/vocab"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "mine":
		err = cmdMine(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "impute":
		err = cmdDecode(os.Args[2:], true)
	case "generate":
		err = cmdDecode(os.Args[2:], false)
	case "check":
		err = cmdCheck(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lejit: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lejit:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lejit <simulate|mine|train|impute|generate|check> [flags]

  simulate  generate synthetic datacenter telemetry records
  mine      discover rules from simulated training data
  train     train the character-level LM from scratch
  impute    impute fine-grained series for test windows
  generate  generate synthetic records unconditionally
  check     check records on stdin against a rule file
  explain   decode one record with a per-step masking trace (paper Fig 1b)

run 'lejit <cmd> -h' for per-command flags`)
}

func openOut(path string) (*os.File, func(), error) {
	if path == "" || path == "-" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	racks := fs.Int("racks", 10, "number of racks")
	windows := fs.Int("windows", 100, "windows per rack")
	seed := fs.Int64("seed", 1, "simulator seed")
	out := fs.String("o", "-", "output file (default stdout)")
	fs.Parse(args)

	w, done, err := openOut(*out)
	if err != nil {
		return err
	}
	defer done()
	for _, win := range dataset.Generate(dataset.Config{Racks: *racks, WindowsPerRack: *windows, Seed: *seed}) {
		fmt.Fprint(w, dataset.Format(win.Rec))
	}
	return nil
}

func cmdMine(args []string) error {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	racks := fs.Int("racks", 80, "training racks")
	windows := fs.Int("windows", 60, "windows per rack")
	seed := fs.Int64("seed", 1, "simulator seed")
	coarse := fs.Bool("coarse-only", false, "mine only coarse-signal rules (synthesis task)")
	slack := fs.Int64("slack", 2, "bound slack")
	out := fs.String("o", "-", "output rule file (default stdout)")
	fs.Parse(args)

	ws := dataset.Generate(dataset.Config{Racks: *racks, WindowsPerRack: *windows, Seed: *seed})
	cfg := mining.Config{Slack: *slack, Coeffs: []int64{1, 2, 3}}
	if *coarse {
		cfg.Fields = dataset.CoarseFields()
	}
	rs, err := mining.Mine(dataset.Records(ws), dataset.Schema(), cfg)
	if err != nil {
		return err
	}
	w, done, err := openOut(*out)
	if err != nil {
		return err
	}
	defer done()
	fmt.Fprint(w, rs.String())
	fmt.Fprintf(os.Stderr, "lejit: mined %d rules\n", rs.Len())
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	racks := fs.Int("racks", 80, "training racks")
	windows := fs.Int("windows", 60, "windows per rack")
	seed := fs.Int64("seed", 1, "seed")
	epochs := fs.Int("epochs", 3, "training epochs")
	dim := fs.Int("dim", 64, "model width")
	layers := fs.Int("layers", 2, "transformer blocks")
	heads := fs.Int("heads", 4, "attention heads")
	out := fs.String("o", "model.gob", "output model file")
	fs.Parse(args)

	tok := vocab.Telemetry()
	ws := dataset.Generate(dataset.Config{Racks: *racks, WindowsPerRack: *windows, Seed: *seed})
	seqs := make([][]int, 0, len(ws))
	for _, win := range ws {
		seq, err := tok.EncodeSeq(dataset.Format(win.Rec))
		if err != nil {
			return err
		}
		seqs = append(seqs, seq)
	}
	m, err := nn.New(nn.Config{Vocab: tok.Size(), Ctx: 48, Dim: *dim, Heads: *heads, Layers: *layers}, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lejit: training %d-param model on %d sequences\n", m.NumParams(), len(seqs))
	if _, err := m.Train(seqs, nn.TrainConfig{
		Epochs: *epochs, Seed: *seed, LogEvery: 100,
		Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}); err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lejit: wrote %s\n", *out)
	return nil
}

func loadEngine(modelPath, rulePath string, mode core.Mode, temp float64) (*core.Engine, *rules.RuleSet, error) {
	f, err := os.Open(modelPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	m, err := nn.Load(f)
	if err != nil {
		return nil, nil, err
	}
	schema := dataset.Schema()
	var rs *rules.RuleSet
	if rulePath != "" {
		src, err := os.ReadFile(rulePath)
		if err != nil {
			return nil, nil, err
		}
		rs, err = rules.ParseRuleSet(string(src), schema)
		if err != nil {
			return nil, nil, err
		}
	}
	slots, err := core.TelemetryGrammar(schema, dataset.CoarseFields(), dataset.FineField)
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngine(core.Config{
		LM: core.WrapNN(m), Tok: vocab.Telemetry(), Schema: schema,
		Rules: rs, Slots: slots, Mode: mode, Temperature: temp,
	})
	return eng, rs, err
}

func cmdDecode(args []string, impute bool) error {
	name := "generate"
	if impute {
		name = "impute"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	modelPath := fs.String("model", "model.gob", "trained model file")
	rulePath := fs.String("rules", "", "rule file (required except -mode vanilla)")
	n := fs.Int("n", 5, "records to decode")
	seed := fs.Int64("seed", 1, "sampling seed")
	temp := fs.Float64("temp", 0.9, "sampling temperature")
	mode := fs.String("mode", "lejit", "lejit|structure|vanilla|rejection|posthoc")
	testSeed := fs.Int64("test-seed", 99, "simulator seed for test prompts (impute)")
	workers := fs.Int("workers", 0, "parallel decode workers (0 = GOMAXPROCS); output is deterministic in -seed regardless")
	fs.Parse(args)

	engMode := core.LeJIT
	if *mode == "structure" {
		engMode = core.StructureOnly
	}
	if *rulePath == "" && *mode != "vanilla" && *mode != "structure" {
		return fmt.Errorf("-rules is required for mode %s", *mode)
	}
	eng, rs, err := loadEngine(*modelPath, *rulePath, engMode, *temp)
	if err != nil {
		return err
	}

	var prompts []rules.Record
	if impute {
		ws := dataset.Generate(dataset.Config{Racks: 1, WindowsPerRack: *n, Seed: *testSeed})
		for _, w := range ws {
			known := rules.Record{}
			for _, f := range dataset.CoarseFields() {
				known[f] = w.Rec[f]
			}
			prompts = append(prompts, known)
		}
	} else {
		prompts = make([]rules.Record, *n)
	}

	var method core.Method
	switch *mode {
	case "lejit", "structure":
		// Guided: Impute for prompts, Generate for nil prompts.
	case "vanilla":
		method = core.MethodFree
	case "rejection":
		method = core.MethodRejection
	case "posthoc":
		method = core.MethodPostHoc
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	batch, err := eng.DecodeBatch(prompts, *workers, *seed, method)
	if err != nil {
		return err
	}
	for i, b := range batch {
		if b.Err != nil {
			fmt.Printf("# record %d: error: %v\n", i, b.Err)
			continue
		}
		line := dataset.Format(b.Res.Rec)
		var viol []string
		if rs != nil {
			viol, _ = rs.Violations(b.Res.Rec)
		}
		fmt.Printf("%s", line)
		if len(viol) > 0 {
			fmt.Printf("# violations: %v\n", viol)
		}
	}
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	rulePath := fs.String("rules", "", "rule file (required)")
	fs.Parse(args)
	if *rulePath == "" {
		return fmt.Errorf("-rules is required")
	}
	src, err := os.ReadFile(*rulePath)
	if err != nil {
		return err
	}
	rs, err := rules.ParseRuleSet(string(src), dataset.Schema())
	if err != nil {
		return err
	}

	sc := bufio.NewScanner(os.Stdin)
	lineNo, bad := 0, 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		rec, err := dataset.ParseLine(line)
		if err != nil {
			fmt.Printf("line %d: parse error: %v\n", lineNo, err)
			bad++
			continue
		}
		vs, err := rs.Violations(rec)
		if err != nil {
			return err
		}
		if len(vs) > 0 {
			fmt.Printf("line %d: violates %v\n", lineNo, vs)
			bad++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Printf("checked %d lines, %d non-compliant\n", lineNo, bad)
	return nil
}
