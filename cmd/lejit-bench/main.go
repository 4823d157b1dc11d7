// Command lejit-bench regenerates the paper's evaluation figures (§4,
// Figures 3–5) plus the design-choice ablations, printing each as an
// aligned text table, and nothing else: serving performance is measured by
// the repository benchmark (bash bench/run.sh, see bench/README.md). Results
// for the committed scales are recorded in EXPERIMENTS.md.
//
// Examples:
//
//	lejit-bench                      # all figures at the default scale
//	lejit-bench -scale tiny          # fast smoke run
//	lejit-bench -fig 3l,3r           # just Fig 3 (valid: all,3l,3r,4l,4r,5,abl)
//	lejit-bench -testn 1000 -samplen 2000   # bigger evaluation
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
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
	figs := flag.String("fig", "all", "comma-separated subset of "+strings.Join(figNames, ",")+"; any other name is an error")
	testN := flag.Int("testn", 0, "override test-record count")
	sampleN := flag.Int("samplen", 0, "override synthesis sample count")
	racks := flag.Int("racks", 0, "override total rack count")
	windows := flag.Int("windows", 0, "override windows per rack")
	epochs := flag.Int("epochs", 0, "override training epochs")
	cache := flag.String("cache", "artifacts", "model cache directory ('' disables)")
	seed := flag.Int64("seed", 0, "override seed")
	workers := flag.Int("workers", 0, "decode workers for batched methods (0 = GOMAXPROCS)")
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

	want, err := parseFigs(*figs)
	if err != nil {
		return err
	}

	env, err := experiments.Prepare(sc)
	if err != nil {
		return err
	}
	fmt.Printf("# LeJIT benchmark — scale=%s racks=%d windows/rack=%d testN=%d sampleN=%d\n",
		*scale, sc.Racks, sc.WindowsPerRack, sc.TestN, sc.SampleN)
	fmt.Printf("# mined rules: %d (imputation) / %d (synthesis); model: %d params\n\n",
		env.ImputeRules.Len(), env.SynthRules.Len(), env.Model.NumParams())

	if want["3l"] || want["3r"] || want["4l"] || want["4r"] {
		rs, err := experiments.RunImputation(env)
		if err != nil {
			return err
		}
		if want["3l"] {
			fmt.Println(experiments.Fig3LeftTable(rs).Render())
		}
		if want["3r"] {
			fmt.Println(experiments.Fig3RightTable(rs).Render())
		}
		if want["4l"] {
			fmt.Println(experiments.Fig4LeftTable(rs).Render())
		}
		if want["4r"] {
			fmt.Println(experiments.Fig4RightTable(rs).Render())
		}
	}
	if want["5"] {
		ss, err := experiments.RunSynthesis(env)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig5Table(ss).Render())
		fmt.Println(experiments.Fig5RuntimeTable(ss).Render())
	}
	if want["abl"] {
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
	return nil
}

// figNames is what -fig accepts; "all" stands for every name after it.
var figNames = []string{"all", "3l", "3r", "4l", "4r", "5", "abl"}

// parseFigs turns a -fig list into the set of figures to run. A name outside
// figNames is an error, so a typo cannot turn into a run that prints the
// header, regenerates nothing and exits 0.
func parseFigs(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figNames, f) {
			return nil, fmt.Errorf("-fig: unknown figure %q (valid: %s)", f, strings.Join(figNames, ","))
		}
		want[f] = true
	}
	if want["all"] {
		for _, f := range figNames {
			want[f] = true
		}
	}
	return want, nil
}
