// Command lejit-bench regenerates the paper's evaluation figures (§4,
// Figures 3–5) plus the design-choice ablations, printing each as an
// aligned text table. Results for the committed scales are recorded in
// EXPERIMENTS.md.
//
// Examples:
//
//	lejit-bench                      # all figures at the default scale
//	lejit-bench -scale tiny          # fast smoke run
//	lejit-bench -fig 3l,3r           # just Fig 3
//	lejit-bench -testn 1000 -samplen 2000   # bigger evaluation
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lejit-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	scale := flag.String("scale", "default", "default|tiny")
	figs := flag.String("fig", "all", "comma-separated: 3l,3r,4l,4r,5,abl,spec,pack,cores,load (all = every figure except spec, pack, cores, and load)")
	testN := flag.Int("testn", 0, "override test-record count")
	sampleN := flag.Int("samplen", 0, "override synthesis sample count")
	racks := flag.Int("racks", 0, "override total rack count")
	windows := flag.Int("windows", 0, "override windows per rack")
	epochs := flag.Int("epochs", 0, "override training epochs")
	cache := flag.String("cache", "artifacts", "model cache directory ('' disables)")
	seed := flag.Int64("seed", 0, "override seed")
	workers := flag.Int("workers", 0, "decode workers for batched methods (0 = GOMAXPROCS)")
	jsonOut := flag.String("json", "", "write the machine-readable report of -fig spec|pack|cores|load to this file")
	kernelWorkers := flag.Int("kernel-workers", 0, "GEMM worker-group size for figure decodes (0 = leave serial, <0 = GOMAXPROCS)")
	quantize := flag.String("quantize", "", "weight quantization for figure decodes: exact|snap ('' = off)")
	lookahead := flag.Int("lookahead", 0, "speculative window for -fig spec: 0 sweeps {0,2,4,8,16}, k>0 compares {0,k}")
	loadConns := flag.Int("load-conns", 0, "in-flight connection cap for -fig load (0 = default 10000)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	quiet := flag.Bool("q", false, "suppress progress logs")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lejit-bench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lejit-bench: -memprofile:", err)
			}
		}()
	}

	var sc experiments.ScaleConfig
	switch *scale {
	case "default":
		sc = experiments.DefaultScale()
	case "tiny":
		sc = experiments.TinyScale()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *testN > 0 {
		sc.TestN = *testN
	}
	if *sampleN > 0 {
		sc.SampleN = *sampleN
	}
	if *racks > 0 {
		sc.Racks = *racks
	}
	if *windows > 0 {
		sc.WindowsPerRack = *windows
	}
	if *epochs > 0 {
		sc.Epochs = *epochs
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *workers > 0 {
		sc.Workers = *workers
	}
	sc.CacheDir = *cache
	sc.Quiet = *quiet

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	if *jsonOut != "" && !want["spec"] && !want["pack"] && !want["cores"] && !want["load"] {
		return fmt.Errorf("-json needs -fig spec, pack, cores or load: the paper figures print tables only")
	}

	env, err := experiments.Prepare(sc)
	if err != nil {
		return err
	}
	fmt.Printf("# LeJIT benchmark — scale=%s racks=%d windows/rack=%d testN=%d sampleN=%d\n",
		*scale, sc.Racks, sc.WindowsPerRack, sc.TestN, sc.SampleN)
	fmt.Printf("# mined rules: %d (imputation) / %d (synthesis); model: %d params\n\n",
		env.ImputeRules.Len(), env.SynthRules.Len(), env.Model.NumParams())

	// Kernel knobs apply to the shared figure model. The cores benchmark is
	// unaffected: it gob-clones the model and manages its own worker group.
	if *kernelWorkers != 0 {
		eff := env.Model.SetKernelWorkers(*kernelWorkers)
		fmt.Printf("# kernel workers: %d\n", eff)
	}
	if *quantize != "" {
		st, err := env.Model.Quantize(*quantize)
		if err != nil {
			return err
		}
		fmt.Printf("# weight quantization: %s (row coverage %.2f)\n", st.Mode, st.Coverage)
	}

	if all || want["3l"] || want["3r"] || want["4l"] || want["4r"] {
		rs, err := experiments.RunImputation(env)
		if err != nil {
			return err
		}
		if all || want["3l"] {
			fmt.Println(experiments.Fig3LeftTable(rs).Render())
		}
		if all || want["3r"] {
			fmt.Println(experiments.Fig3RightTable(rs).Render())
		}
		if all || want["4l"] {
			fmt.Println(experiments.Fig4LeftTable(rs).Render())
		}
		if all || want["4r"] {
			fmt.Println(experiments.Fig4RightTable(rs).Render())
		}
	}
	if all || want["5"] {
		ss, err := experiments.RunSynthesis(env)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig5Table(ss).Render())
		fmt.Println(experiments.Fig5RuntimeTable(ss).Render())
	}
	if all || want["abl"] {
		ab, err := experiments.RunRuleSetSizeAblation(env, nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.AblationTable("Ablation: rule-set size sweep (violations measured vs the FULL mined set)", ab).Render())
		db, err := experiments.RunDecodeStrategyAblation(env, nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.AblationTable("Ablation: decoding strategy (sampling vs greedy vs beam)", db).Render())
	}
	// The speculative-decoding sweep re-decodes the test set once per
	// lookahead setting, so it only runs when asked for explicitly — it is
	// not part of "all".
	if want["spec"] {
		var ks []int
		if *lookahead > 0 {
			ks = []int{0, *lookahead}
		}
		rep, err := experiments.RunSpecBench(env, ks)
		if err != nil {
			return err
		}
		fmt.Println(experiments.SpecTable(rep).Render())
		if !rep.MatchesExact {
			return fmt.Errorf("speculative decode diverged from the exact path (see table)")
		}
		if *jsonOut != "" {
			if err := rep.WriteJSON(*jsonOut); err != nil {
				return err
			}
			fmt.Printf("# spec report written to %s\n", *jsonOut)
		}
	}
	// The domain-pack benchmark trains two extra tiny models and spins up a
	// multi-pack lejitd instance, so it only runs when asked for explicitly —
	// it is not part of "all".
	if want["pack"] {
		rep, err := experiments.RunPackBench(env, experiments.ServeBenchConfig{})
		if err != nil {
			return err
		}
		fmt.Println(experiments.PackTable(rep).Render())
		if !rep.TelemetryMatchesDirect {
			return fmt.Errorf("telemetry pack diverged from the directly built engine (see table)")
		}
		if *jsonOut != "" {
			if err := rep.WriteJSON(*jsonOut); err != nil {
				return err
			}
			fmt.Printf("# pack report written to %s\n", *jsonOut)
		}
	}
	// The multi-core kernel sweep re-decodes the test set at several
	// GOMAXPROCS settings (mutating the process's GOMAXPROCS as it goes), so
	// it only runs when asked for explicitly — it is not part of "all".
	if want["cores"] {
		rep, err := experiments.RunCoresBench(env)
		if err != nil {
			return err
		}
		fmt.Println(experiments.CoresTable(rep).Render())
		if rep.Warning != "" {
			fmt.Printf("# warning: %s\n", rep.Warning)
		}
		if !rep.ParallelMatchesSerial {
			return fmt.Errorf("sharded kernels diverged from the serial baseline (see table)")
		}
		if !rep.QuantizedMatchesFloat32 {
			return fmt.Errorf("int8 kernels diverged from float32 on snapped weights (see table)")
		}
		if *jsonOut != "" {
			if err := rep.WriteJSON(*jsonOut); err != nil {
				return err
			}
			fmt.Printf("# cores report written to %s\n", *jsonOut)
		}
	}
	// The open-loop load sweep spins up multi-shard lejitd fleets and drives
	// thousands of connections, so it only runs when asked for explicitly —
	// it is not part of "all". It hard-fails on any correctness violation:
	// the curve is meaningless if the fleet returned wrong bytes fast.
	if want["load"] {
		rep, err := experiments.RunLoadBench(env, experiments.LoadBenchConfig{Conns: *loadConns})
		if err != nil {
			return err
		}
		fmt.Println(experiments.LoadTable(rep).Render())
		if rep.Warning != "" {
			fmt.Printf("# warning: %s\n", rep.Warning)
		}
		if !rep.StreamedMatchesUnary {
			return fmt.Errorf("load bench: streamed responses diverged from unary (see table)")
		}
		if rep.MisSeeded > 0 || rep.StaleEpochs > 0 {
			return fmt.Errorf("load bench: %d mis-seeded and %d stale-epoch responses", rep.MisSeeded, rep.StaleEpochs)
		}
		if rep.Errors > 0 {
			return fmt.Errorf("load bench: %d transport or unexpected-status errors", rep.Errors)
		}
		if *jsonOut != "" {
			if err := rep.WriteJSON(*jsonOut); err != nil {
				return err
			}
			fmt.Printf("# load report written to %s\n", *jsonOut)
		}
	}
	return nil
}
