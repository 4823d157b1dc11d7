package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// worseBy is how much worse `second` is than `first`, as a share of first and
// in the metric's own direction; negative when second is better.
func worseBy(better string, first, second float64) float64 {
	if first == 0 {
		return 0
	}
	d := (second - first) / math.Abs(first)
	if better == "higher" {
		return -d
	}
	return d
}

// agreement is the comparison of one metric on one workload across two sets.
type agreement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`               // 0 for metrics reported without one
	AbsBound float64 `json:"abs_bound,omitempty"` // in the metric's unit; 0 for none
	Median1  float64 `json:"median_1"`
	Median2  float64 `json:"median_2"`
	Spread1  float64 `json:"spread_1"` // (Q3-Q1)/median within set 1
	Spread2  float64 `json:"spread_2"`
	WorseBy  float64 `json:"worse_by"`
	OK       bool    `json:"ok"`
	// The runs behind the medians, in seed order: a spread is only
	// explicable with them.
	Values1 []float64 `json:"values_1"`
	Values2 []float64 `json:"values_2"`
}

// absBound is ISSUE 12's bound on success_share, which BENCHMARK.json cannot
// carry: an absolute 0.03, 0.06 on overload. A relative 0.25 would let
// overload fall from 0.55 to 0.42 unnoticed.
func absBound(workload, metric string) float64 {
	switch {
	case metric != "success_share":
		return 0
	case workload == wlOverload:
		return 0.06
	}
	return 0.03
}

// judge applies the acceptance rule: both spreads within the bound (setup_s
// exempt) and the second median not worse than the first by more than it,
// nor by more than the absolute bound where there is one. It is never more
// lenient than the acceptance procedure, which is why ISSUE 12's 0.2 s floor
// on setup_s is not applied. A metric without a bound is reported and always
// passes.
func judge(a *agreement, better string) {
	a.Spread1, a.Spread2 = round6(a.Spread1), round6(a.Spread2)
	a.WorseBy = round6(worseBy(better, a.Median1, a.Median2))
	if a.Bound == 0 {
		a.OK = true
		return
	}
	spreadOK := a.Metric == "setup_s" || (a.Spread1 <= a.Bound && a.Spread2 <= a.Bound)
	absOK := a.AbsBound == 0 || a.WorseBy*math.Abs(a.Median1) <= a.AbsBound
	a.OK = spreadOK && absOK && a.WorseBy <= a.Bound
}

func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }

// runOne executes this binary once and returns its result and report lines.
func runOne(exe, workload string, seed int64, seconds int) (result, report, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, report{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		return result{}, report{}, fmt.Errorf("%s seed %d: expected a report and a result line", workload, seed)
	}
	var res result
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, rep, err
	}
	err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep)
	return res, rep, err
}

// agreeRuns is how many seeds of a workload make one set — what the
// acceptance procedure uses.
const agreeRuns = 10

// runAgree runs two sets of agreeRuns seeds of every workload back to back
// and compares them the way the acceptance procedure does.
func runAgree(bf contract, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	type key struct{ workload, metric string }
	samples := [2]map[key][]float64{{}, {}}
	// Carried along from the detail line without a bound, so that their
	// repeatability can be judged: tail latency, pacer lag, the host
	// clock slowdown each set ran under and the share of the CPU time it was
	// ready to use that it got.
	tails := []metricDef{
		{"latency_p95_ms", "ms", "lower"}, {"latency_p99_ms", "ms", "lower"},
		{"generator_lag_p99_ms", "ms", "lower"}, {"host_slowdown", "ratio", "lower"},
		{"cpu_supply_share", "share", "higher"},
	}
	for set := 0; set < 2; set++ {
		for _, wl := range bf.Workloads {
			for r := 0; r < agreeRuns; r++ {
				seed := int64(100*set + r + 1)
				res, rep, err := runOne(exe, wl.Name, seed, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for name, mv := range res.Metrics {
					k := key{wl.Name, name}
					samples[set][k] = append(samples[set][k], mv.Value)
				}
				for _, m := range tails {
					k := key{wl.Name, m.Name}
					samples[set][k] = append(samples[set][k], rep.Detail[m.Name])
				}
				fmt.Fprintf(os.Stderr, "bench: set %d %s seed %d done\n", set+1, wl.Name, seed)
			}
		}
	}

	type judged struct {
		metricDef
		bound float64
	}
	var metrics []judged
	for _, m := range bf.EndToEnd {
		metrics = append(metrics, judged{m.metricDef, m.Bound})
	}
	for _, m := range tails {
		metrics = append(metrics, judged{m, 0})
	}
	var rows []agreement
	ok := true
	for _, wl := range bf.Workloads {
		for _, m := range metrics {
			k := key{wl.Name, m.Name}
			a := agreement{Workload: wl.Name, Metric: m.Name, Unit: m.Unit, Bound: m.bound, AbsBound: absBound(wl.Name, m.Name),
				Median1: median(samples[0][k]), Median2: median(samples[1][k]),
				Spread1: spreadShare(samples[0][k]), Spread2: spreadShare(samples[1][k]),
				Values1: samples[0][k], Values2: samples[1][k]}
			judge(&a, m.Better)
			ok = ok && a.OK
			rows = append(rows, a)
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian 1\tmedian 2\tspread 1\tspread 2\tworse by\tbound\tok")
	for _, a := range rows {
		bound := "-"
		if a.Bound > 0 {
			bound = strconv.FormatFloat(a.Bound, 'g', -1, 64)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f\t%.3f\t%+.3f\t%s\t%v\n",
			a.Workload, a.Metric, a.Unit, a.Median1, a.Median2, a.Spread1, a.Spread2, a.WorseBy, bound, a.OK)
	}
	tw.Flush()

	path := filepath.Join("bench", "out", "agreement.json")
	data, err := json.MarshalIndent(map[string]any{"runs_per_set": agreeRuns, "seconds": seconds, "rows": rows}, "", "  ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
