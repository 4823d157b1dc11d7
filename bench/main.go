// Command bench is the repository benchmark: one process hosts the system
// under test (lejitd's server, router and engines, built through the pack
// path) and the load generator. See README.md in this directory for the
// workload and metric definitions, and BENCHMARK.json at the repository root
// for the contract the numbers are compared under.
//
//	bash bench/run.sh --workload steady --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload steady --seed 1 --seconds 25 --trace 1
//	bash bench/run.sh --agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// processStart anchors the first set-up's clock and CPU ledger at (very
// nearly) process start, so runtime initialisation is not hidden from setup_s.
var processStart = beginPhase()

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// contract is what the program reads of BENCHMARK.json, the one place the
// metric names, units, directions and bounds are written down: a run prints
// exactly the metrics listed there.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func (c contract) endToEnd() []metricDef {
	var out []metricDef
	for _, m := range c.EndToEnd {
		out = append(out, m.metricDef)
	}
	return out
}

func readContract() (contract, error) {
	var c contract
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return c, fmt.Errorf("the benchmark runs from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return c, nil
}

// publish fills res.Metrics with the listed metrics. A listed metric the run
// did not measure is an error, not a hole.
func publish(res *result, listed []metricDef, vals map[string]float64) error {
	for _, m := range listed {
		v, ok := vals[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json lists %s, which this run did not measure", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return nil
}

// header describes the machine and build a result was taken on.
type header struct {
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	LoadAvg1  float64 `json:"loadavg_1m"`
	// Busy flags a host whose 1-minute load average was above nproc/2 when
	// the run began: the numbers are still printed, but are suspect.
	Busy bool `json:"busy,omitempty"`
}

func readHeader(nproc int) header {
	h := header{NProc: nproc, GoVersion: runtime.Version(), Commit: "unknown", LoadAvg1: -1}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.LoadAvg1, h.Busy = v, v > float64(nproc)/2
			}
		}
	}
	return h
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is printed on the line before the result: the run header and the
// numbers that explain the result without being part of the contract.
type report struct {
	Header   header             `json:"header"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    int                `json:"trace"`
	Detail   map[string]float64 `json:"detail"`
	Reasons  map[string]int     `json:"failure_reasons,omitempty"`
	Shed     map[string]int     `json:"shed,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "prompts, request seeds and the arrival schedule derive from this")
	seconds := flag.Int("seconds", 25, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans, runs the layer probes and prints the per-layer metrics")
	agree := flag.Bool("agree", false, "run two full sets of every workload and compare their medians under BENCHMARK.json's bounds")
	flag.Parse()

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	hdr := readHeader(nproc)
	if hdr.Busy {
		fmt.Fprintf(os.Stderr, "bench: 1-minute load average %.2f is above nproc/2 = %.1f; results are suspect\n", hdr.LoadAvg1, float64(nproc)/2)
	}
	bm, err := readContract()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *agree {
		os.Exit(runAgree(bm, *seconds))
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == *workload
	}
	if !known || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload (one of %s) and -seconds >= 1\n", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}

	rep := report{Header: hdr, Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Detail: map[string]float64{}}
	host := startHostClock()
	var res result
	if *trace == 0 {
		res, err = runUntraced(&rep, bm, host, nproc)
	} else {
		res, err = runTraced(&rep, bm, host, nproc)
	}
	host.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	for _, line := range []any{rep, res} {
		if err := out.Encode(line); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// fillReport copies a tally's explanatory numbers into the report.
func fillReport(rep *report, t *tally, w *window) {
	d := rep.Detail
	d["attempted"], d["good"], d["failed"] = float64(t.attempted), float64(t.good), float64(t.failed)
	d["refs_checked"] = float64(t.refsChecked)
	d["latency_p95_ms"], d["latency_p99_ms"] = percentile(t.lat, 0.95), percentile(t.lat, 0.99)
	d["generator_lag_p99_ms"] = percentile(durationsMs(w.lag), 0.99)
	d["conn_wait_p99_ms"] = percentile(t.connWait, 0.99)
	d["response_batch_size_mean"] = share(float64(t.batchSum), float64(t.good))
	d["solver_checks_per_token"] = share(float64(t.solverChecks), float64(t.tokens))
	d["elapsed_s"] = w.elapsed.Seconds()
	rep.Reasons = t.reasons
	rep.Shed = map[string]int{}
	for code, n := range t.shed {
		rep.Shed[strconv.Itoa(code)] = n
	}
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// verdict turns a tally into the contract's correct/attempted/failed. A run
// is correct when no operation had a wrong outcome and the solo references
// were actually compared.
func verdict(t *tally) result {
	return result{
		Correct:   t.failed == 0 && t.attempted > 0 && t.refsChecked > 0,
		Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metricValue{},
	}
}

// setupRepeats is how many times an untraced run sets up. The benchmark
// contract asks for several set-ups in a run and their median as setup_s, so
// that one slow set-up (a cold page cache, a busy neighbour) cannot move it.
const setupRepeats = 3

// saturates names the workloads whose window keeps every core busy from
// start to end: every thread is on the critical path, so CPU time the process
// was ready to use and did not get stretches the window in proportion.
var saturates = map[string]bool{wlOverload: true, wlOfflineSynt: true}

// openLoops names the workloads that offer a fixed number of operations.
var openLoops = map[string]bool{wlSteady: true, wlOverload: true}

// windowSlowdown is the factor by which a workload's window ran longer than
// it would have on the reference host: the clock slowdown, over the CPU
// supply share where the window is saturated. steady and mixed-reload mostly
// sleep (the 2 ms batch window, the socket); a process that is ready for so
// little CPU reads a supply share of 0.5-0.8 whatever the host does, and
// their latency does not follow it. It does follow the clock: over ten
// steady runs during which the clock slowdown went from 1.05 to 1.56,
// latency_p50_ms spread 0.37 as measured and 0.14 over the clock.
func windowSlowdown(workload string, clock, supply float64) float64 {
	if saturates[workload] {
		return clock / supply
	}
	return clock
}

// atReferenceSpeed restates a window for a host on which the reference task
// takes hostRefUs and the process gets every CPU it is ready to use, given
// the slowdown h of the window (windowSlowdown): times shrink by h and the
// operations completed grow by it. A closed loop would have attempted more in
// step, so its success_share stands. An open loop offered a fixed number: one
// that shed some of it was limited by the host, so its good operations grow
// by h until they reach what was offered, and success_share follows; one that
// served all it was offered was not, and its count stands.
func atReferenceSpeed(v map[string]float64, h float64, t *tally, openLoop bool) {
	v["latency_p50_ms"] /= h
	v["ttft_p50_ms"] /= h
	if !openLoop {
		v["goodput_rps"] *= h
		return
	}
	offered, good := float64(t.attempted-t.failed), float64(t.good)
	if good < offered {
		good = min(good*h, offered)
	}
	v["goodput_rps"] *= good / float64(max(t.good, 1))
	v["success_share"] = good / float64(max(t.attempted, 1))
}

// runUntraced is the end-to-end run: set up setupRepeats times, measure one
// window on the last set-up with no tracing at all.
func runUntraced(rep *report, bm contract, host *hostClock, nproc int) (result, error) {
	var e *env
	var took []float64
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = processStart.from
		}
		var err error
		if e, err = setup(rep.Workload, rep.Seed, rep.Seconds, nproc); err != nil {
			return result{}, err
		}
		took = append(took, time.Since(t0).Seconds())
		rep.Detail[fmt.Sprintf("setup_%d_s", r)] = took[r]
		if r < setupRepeats-1 {
			if err := e.close(); err != nil {
				return result{}, err
			}
		}
	}
	// Set-up is CPU-bound from end to end on every workload, so setup_s is
	// always restated; one slowdown over all the set-ups, because a single
	// one can be too short (0.3 s on offline-synth) to sample the host well.
	// By the clock only: set-up runs mostly on one thread, and a collector
	// thread that waited behind it did not hold it up.
	d := rep.Detail
	hSetup, supplySetup := host.end(processStart, nproc)
	d["setup_host_slowdown"], d["setup_cpu_supply_share"] = hSetup, supplySetup
	quiesce()
	ph := beginPhase()
	w := e.measure(time.Duration(rep.Seconds)*time.Second, nil)
	clock, supply := host.end(ph, nproc)
	d["host_slowdown"], d["cpu_supply_share"] = clock, supply
	if err := e.close(); err != nil {
		return result{}, err
	}
	t := e.evaluate(w)
	fillReport(rep, t, w)
	vals := t.e2e(w.elapsed)
	for name, v := range vals {
		rep.Detail["measured_"+name] = v
	}
	atReferenceSpeed(vals, windowSlowdown(rep.Workload, clock, supply), t, openLoops[rep.Workload])
	vals["setup_s"] = median(took) / hSetup
	res := verdict(t)
	return res, publish(&res, bm.endToEnd(), vals)
}

// runTraced gives the per-layer numbers. It runs the workload twice at the
// same seed on fresh set-ups, each for half the window: once untraced, once
// with spans and the 10 Hz sampler, so the difference is the tracing
// overhead; then it runs the layer probes on the second set-up and writes
// the spans to bench/out/<workload>.trace.json.
func runTraced(rep *report, bm contract, host *hostClock, nproc int) (result, error) {
	half := time.Duration(rep.Seconds) * time.Second / 2
	plain, err := setup(rep.Workload, rep.Seed, rep.Seconds, nproc)
	if err != nil {
		return result{}, err
	}
	quiesce()
	ph := beginPhase()
	wp := plain.measure(half, nil)
	clock, supply := host.end(ph, nproc)
	hp := windowSlowdown(rep.Workload, clock, supply)
	if err := plain.close(); err != nil {
		return result{}, err
	}
	tp := plain.evaluate(wp)

	tr := newTracer()
	e, err := setup(rep.Workload, rep.Seed, rep.Seconds, nproc)
	if err != nil {
		return result{}, err
	}
	defer e.close()
	quiesce()
	c0 := e.readCounters()
	var smp *sampler
	if e.srv != nil {
		smp = startSampler(e.srv.Router().Load)
	}
	ph = beginPhase()
	w := e.measure(half, tr)
	clock, supply = host.end(ph, nproc)
	v := map[string]float64{"host.slowdown": clock, "host.cpu_supply_share": supply}
	if smp != nil {
		smp.finish()
	}
	c1 := e.readCounters()
	t := e.evaluate(w)
	fillReport(rep, t, w)

	if err := e.layerProbes(tr, v); err != nil {
		return result{}, err
	}
	windowMetrics(e, t, w, smp, c0, c1, v)
	// The two halves ran seconds apart: compare them at one host speed.
	plainLat := median(tp.lat) / hp
	tracedLat := median(t.lat) / windowSlowdown(rep.Workload, clock, supply)
	v["trace.overhead_share"] = share(tracedLat-plainLat, plainLat)
	rep.Detail["untraced_half_latency_p50_ms"], rep.Detail["traced_half_latency_p50_ms"] = plainLat, tracedLat

	path := filepath.Join("bench", "out", rep.Workload+".trace.json")
	if err := tr.write(path, rep); err != nil {
		return result{}, err
	}
	res := verdict(t)
	res.Correct = res.Correct && tp.failed == 0
	res.Attempted, res.Failed = res.Attempted+tp.attempted, res.Failed+tp.failed
	return res, publish(&res, bm.PerLayer, v)
}

// windowMetrics fills the per-layer metrics that come from the traced window
// itself: counter differences, the sampler, and the client's own tallies.
func windowMetrics(e *env, t *tally, w *window, smp *sampler, c0, c1 counters, v map[string]float64) {
	v["mining.mine_ms"] = ms(e.stage["mining.mine"])
	v["nn.load_ms"] = ms(e.stage["nn.load"])
	v["pack.compile_ms"] = ms(e.stage["pack.compile"])
	v["core.solver_checks_per_token"] = share(float64(t.solverChecks), float64(t.tokens))

	par, ser := float64(c1.kernelPar-c0.kernelPar), float64(c1.kernelSer-c0.kernelSer)
	v["nn.kernel_parallel_share"] = share(par, par+ser)

	p0, p1 := c0.snap.Prefix, c1.snap.Prefix
	hits, misses := float64(p1.Hits-p0.Hits), float64(p1.Misses-p0.Misses)
	v["prefixcache.hit_share"] = share(hits, hits+misses)
	v["prefixcache.evictions"] = float64(p1.Evictions - p0.Evictions)
	v["prefixcache.bytes_resident"] = float64(p1.BytesResident)

	v["pack.reload_ms_p50"] = median(t.reloadLat)
	v["pack.reloads"] = float64(len(t.reloadLat))

	v["router.batch_size_mean"] = share(float64(c1.snap.BatchedRecs-c0.snap.BatchedRecs), float64(c1.snap.Batches-c0.snap.Batches))
	if e.workload == wlOfflineSynt {
		v["router.batch_size_mean"] = 0 // no router in the path
	}
	if smp == nil {
		smp = &sampler{} // no router: the three read 0
	}
	v["router.queue_depth_mean"] = mean(smp.queued)
	v["router.queue_depth_max"] = percentile(smp.queued, 1)
	v["router.inflight_mean"] = mean(smp.inflight)
	v["server.handle_ms_mean"] = 1000 * share(c1.latSum-c0.latSum, c1.latCount-c0.latCount)
	v["server.ttft_ms_mean"] = 1000 * share(c1.ttftSum-c0.ttftSum, c1.ttftCount-c0.ttftCount)
	n := float64(max(t.attempted, 1))
	v["server.rejected_429_share"] = float64(t.shed[429]) / n
	v["server.timeout_504_share"] = float64(t.shed[504]) / n
	v["server.unavailable_503_share"] = float64(t.shed[503]) / n
	v["server.reject_latency_p50_ms"] = median(t.rejectLat)

	v["client.latency_p95_ms"] = percentile(t.lat, 0.95)
	v["client.latency_p99_ms"] = percentile(t.lat, 0.99)
	v["client.intertoken_gap_p50_ms"] = median(t.gaps)
	v["client.generator_lag_p99_ms"] = percentile(durationsMs(w.lag), 0.99)
	v["client.conn_wait_p99_ms"] = percentile(t.connWait, 0.99)
	v["client.samples"] = float64(len(t.lat))

	v["process.cpu_ms_per_op"] = ms(c1.cpu-c0.cpu) / n
	v["process.heap_inuse_mb"] = float64(c1.heapInuse) / (1 << 20)
	v["process.gc_pause_ms"] = ms(c1.gcPause - c0.gcPause)
}
