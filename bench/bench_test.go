package main

import (
	"bufio"
	"math"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); !near(got, 3) {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); !near(got, 2.5) {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 0); !near(got, 1) {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile(xs, 1); !near(got, 5) {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile(xs, 0.9); !near(got, 4.6) {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// The acceptance procedure computes spreads with Python's
// statistics.quantiles(values, n=4); quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spreadShare(xs); !near(got, 1) {
		t.Errorf("spreadShare = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// quantiles([1, 2, 4], n=4) is [1.0, 2.0, 4.0].
	q1, q3 = quartiles([]float64{4, 1, 2})
	if !near(q1, 1) || !near(q3, 4) {
		t.Errorf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
}

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	span := 10 * time.Second
	a, b := poissonSchedule(7, 60, span), poissonSchedule(7, 60, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, 60, span); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 600 {
		t.Fatalf("%d arrivals, want rate × span = 600", len(a))
	}
	for i, d := range a {
		if d < 0 || d >= span || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v breaks order or range", i, d)
		}
	}
	// Exponential-looking gaps: the largest is several times the mean.
	var maxGap time.Duration
	for i := 1; i < len(a); i++ {
		maxGap = max(maxGap, a[i]-a[i-1])
	}
	if mean := span / 600; maxGap < 3*mean {
		t.Errorf("largest gap %v is under 3× the mean %v: not Poisson-like", maxGap, mean)
	}
}

// A handler that stalls on the first request makes the requests queued
// behind it late. With latency charged from due time the wait shows; charged
// from send time it would vanish (coordinated omission).
func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	first := true
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first { // one worker: no race
			first = false
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	})
	sched := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	reqs := make([]request, len(sched))
	for i := range reqs {
		reqs[i] = request{path: "/", body: []byte("{}")}
	}
	ck := clock{t0: time.Now()}
	ops, lag := openLoop(ck, sched, reqs, 1, func(w int, o *op) { inproc(h, ck, o) })
	if len(ops) != 3 || len(lag) != 3 {
		t.Fatalf("got %d ops, %d lags", len(ops), len(lag))
	}
	for i, o := range ops {
		if o.due != sched[i] || o.status != http.StatusOK {
			t.Fatalf("op %d: due %v status %d", i, o.due, o.status)
		}
	}
	last := ops[2]
	if fromDue := last.done - last.due; fromDue < stall-20*time.Millisecond-5*time.Millisecond {
		t.Errorf("latency from due time %v hides the %v stall", fromDue, stall)
	}
	if fromSend := last.done - last.sent; fromSend > stall/2 {
		t.Errorf("service time %v should be short; the wait belongs before sent", fromSend)
	}
	if last.sent-last.due < stall/2 {
		t.Errorf("connection wait %v should carry the stall", last.sent-last.due)
	}
}

const cannedStream = "event: slot\ndata: {\"slot\":5,\"text\":\"12,\"}\n\n" +
	"event: slot\ndata: {\"slot\":6,\"text\":\"7\\n\"}\n\n" +
	"event: done\ndata: {\"line\":\"12,7\\n\",\"compliant\":true,\"epoch\":\"00ab\"}\n\n"

func TestReadSSEStampsEachSlotEvent(t *testing.T) {
	tick := time.Duration(0)
	now := func() time.Duration { tick += time.Millisecond; return tick }
	// A tiny buffer forces lines to arrive in pieces.
	body, slots, err := readSSE(bufio.NewReaderSize(strings.NewReader(cannedStream), 16), now)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != cannedStream {
		t.Errorf("body altered: %q", body)
	}
	if !reflect.DeepEqual(slots, []time.Duration{time.Millisecond, 2 * time.Millisecond}) {
		t.Errorf("slot stamps = %v, want one per slot event, first at the first event", slots)
	}
	code, concat, dr, err := parseStream(body)
	if err != nil || code != http.StatusOK || concat != "12,7\n" || dr == nil || dr.Line != concat || dr.Epoch != "00ab" {
		t.Errorf("parseStream = %d %q %+v %v", code, concat, dr, err)
	}
}

func TestParseStreamTerminalError(t *testing.T) {
	code, _, dr, err := parseStream([]byte("event: error\ndata: {\"code\":504,\"error\":\"deadline exceeded\"}\n\n"))
	if err != nil || code != http.StatusGatewayTimeout || dr != nil {
		t.Errorf("got %d %+v %v, want 504", code, dr, err)
	}
	if _, _, _, err := parseStream([]byte("event: slot\ndata: {\"slot\":0,\"text\":\"1,\"}\n\n")); err == nil {
		t.Error("a stream without a terminal event must be an error")
	}
}

func TestRecWriterStampsSlotWrites(t *testing.T) {
	w := &recWriter{ck: clock{t0: time.Now()}, hdr: http.Header{}}
	w.Write([]byte("event: slot\ndata: {}\n\n"))
	w.Write([]byte("event: done\ndata: {}\n\n"))
	if w.status != http.StatusOK || len(w.slots) != 1 {
		t.Errorf("status %d, %d slot stamps; want 200 and 1", w.status, len(w.slots))
	}
}

func TestWorseByFollowsTheMetricsDirection(t *testing.T) {
	if got := worseBy("lower", 100, 110); !near(got, 0.10) {
		t.Errorf("latency 100→110: worse by %v, want 0.10", got)
	}
	if got := worseBy("lower", 100, 90); !near(got, -0.10) {
		t.Errorf("latency 100→90: worse by %v, want -0.10", got)
	}
	if got := worseBy("higher", 200, 180); !near(got, 0.10) {
		t.Errorf("goodput 200→180: worse by %v, want 0.10", got)
	}
	if got := worseBy("higher", 0, 5); got != 0 {
		t.Errorf("zero base: %v, want 0", got)
	}
}

func TestJudgeAppliesBoundSpreadAndSetupExemption(t *testing.T) {
	cases := []struct {
		name   string
		a      agreement
		better string
		ok     bool
	}{
		{"within bound", agreement{Metric: "latency_p50_ms", Bound: 0.1, Median1: 100, Median2: 108, Spread1: 0.02, Spread2: 0.03}, "lower", true},
		{"median worse than bound", agreement{Metric: "latency_p50_ms", Bound: 0.1, Median1: 100, Median2: 111, Spread1: 0.02, Spread2: 0.03}, "lower", false},
		{"better is never a failure", agreement{Metric: "goodput_rps", Bound: 0.07, Median1: 100, Median2: 150, Spread1: 0.01, Spread2: 0.01}, "higher", true},
		{"spread over bound", agreement{Metric: "goodput_rps", Bound: 0.07, Median1: 100, Median2: 100, Spread1: 0.08, Spread2: 0.01}, "higher", false},
		{"setup_s spread is exempt", agreement{Metric: "setup_s", Bound: 0.25, Median1: 1, Median2: 1.2, Spread1: 0.4, Spread2: 0.5}, "lower", true},
		{"setup_s median is not", agreement{Metric: "setup_s", Bound: 0.25, Median1: 1, Median2: 1.3, Spread1: 0.1, Spread2: 0.1}, "lower", false},
		{"no bound: reported only", agreement{Metric: "latency_p99_ms", Median1: 10, Median2: 30, Spread1: 0.9, Spread2: 0.9}, "lower", true},
		{"within the absolute bound", agreement{Metric: "success_share", Bound: 0.25, AbsBound: 0.06, Median1: 0.55, Median2: 0.50, Spread1: 0.05, Spread2: 0.05}, "higher", true},
		{"relative ok, absolute not", agreement{Metric: "success_share", Bound: 0.25, AbsBound: 0.06, Median1: 0.55, Median2: 0.48, Spread1: 0.05, Spread2: 0.05}, "higher", false},
		{"absolute bound ignores gains", agreement{Metric: "success_share", Bound: 0.25, AbsBound: 0.03, Median1: 0.55, Median2: 0.70, Spread1: 0.05, Spread2: 0.05}, "higher", true},
	}
	for _, c := range cases {
		judge(&c.a, c.better)
		if c.a.OK != c.ok {
			t.Errorf("%s: ok = %v, want %v (worse by %v)", c.name, c.a.OK, c.ok, c.a.WorseBy)
		}
	}
}

func TestAllowedEpochs(t *testing.T) {
	sec := time.Second
	hist := []reloadAck{
		{sent: -1, acked: -1, epoch: "e80"},
		{sent: 2 * sec, acked: 2*sec + 5*time.Millisecond, epoch: "e75"},
		{sent: 4 * sec, acked: 4*sec + 5*time.Millisecond, epoch: "e80"},
	}
	cases := []struct {
		sent, done time.Duration
		want       []string
	}{
		{1 * sec, 1*sec + 4*time.Millisecond, []string{"e80"}},                           // before any reload
		{2*sec - time.Millisecond, 2*sec + 3*time.Millisecond, []string{"e80", "e75"}},   // reload in flight
		{2*sec + 6*time.Millisecond, 2*sec + 9*time.Millisecond, []string{"e75"}},        // acknowledged: old epoch is stale
		{4*sec + 1*time.Millisecond, 4*sec + 8*time.Millisecond, []string{"e75", "e80"}}, // second reload in flight
		{5 * sec, 5*sec + 4*time.Millisecond, []string{"e80"}},
	}
	for _, c := range cases {
		if got := allowedEpochs(hist, c.sent, c.done); !reflect.DeepEqual(got, c.want) {
			t.Errorf("sent %v done %v: allowed %v, want %v", c.sent, c.done, got, c.want)
		}
	}
}

// BENCHMARK.json is the one list of metric names; the program must know its
// workloads, and a run must be able to publish every listed metric.
func TestContractNamesTheProgramsWorkloads(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("bench")
	bm, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	for _, m := range bm.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	res := result{Metrics: map[string]metricValue{}}
	if err := publish(&res, bm.endToEnd(), map[string]float64{"setup_s": 1}); err == nil {
		t.Error("publish must refuse a listed metric the run did not measure")
	}
}

func TestSlowdownIsTheGeometricMeanWithStallsCapped(t *testing.T) {
	if got := slowdownOf(nil); got != 1 {
		t.Errorf("no samples: %v, want 1", got)
	}
	if got := slowdownOf([]float64{hostRefUs, hostRefUs}); !near(got, 1) {
		t.Errorf("reference speed: %v, want 1", got)
	}
	if got := slowdownOf([]float64{hostRefUs, 2 * hostRefUs}); !near(got, math.Sqrt2) {
		t.Errorf("geometric mean of 1x and 2x: %v, want √2", got)
	}
	// Eleven samples at reference speed and one descheduled for 50 ms: the
	// stall counts as hostStall times the fast ones, not as 500 times.
	xs := append(make([]float64, 0, 12), 50000)
	for i := 0; i < 11; i++ {
		xs = append(xs, hostRefUs)
	}
	if got, want := slowdownOf(xs), math.Pow(hostStall, 1.0/12); !near(got, want) {
		t.Errorf("one stall in twelve: %v, want %v", got, want)
	}
}

func TestHostClockSamplesUntilStopped(t *testing.T) {
	from := time.Now()
	h := startHostClock()
	time.Sleep(10 * hostTick)
	h.stop() // returns once the sampling goroutine has exited
	if n := len(h.samples); n < 3 {
		t.Fatalf("%d samples in ten ticks", n)
	}
	if got := h.slowdown(from, time.Now()); got <= 0 || math.IsNaN(got) {
		t.Errorf("slowdown %v", got)
	}
	if got := h.slowdown(from.Add(-time.Hour), from); got != 1 {
		t.Errorf("an interval without samples: %v, want 1", got)
	}
}

func TestSupplyShare(t *testing.T) {
	sec := func(ran, waited, stolen float64) cpuLedger {
		return cpuLedger{ran: time.Duration(ran * 1e9), waited: time.Duration(waited * 1e9), stolen: time.Duration(stolen * 1e9)}
	}
	a := sec(10, 1, 5)
	// Two threads shared one CPU for 5 of 25 s while the other CPU idled, and
	// the hypervisor took another second: 44 CPU-seconds ran of 50 ready.
	if got := supplyShare(a, sec(10+44, 1+5, 5+1), 25*time.Second, 2); !near(got, 0.88) {
		t.Errorf("supply share %v, want 0.88", got)
	}
	// Three busy threads on two CPUs: ready for 75, but owed only 2 x 25.
	if got := supplyShare(a, sec(10+50, 1+25, 5), 25*time.Second, 2); got != 1 {
		t.Errorf("oversubscribed: %v, want 1", got)
	}
	// An idle phase wanted nothing and was denied nothing.
	if got := supplyShare(a, a, 25*time.Second, 2); got != 1 {
		t.Errorf("idle: %v, want 1", got)
	}
	if l, ok := readCPULedger(); ok && l.ran <= 0 {
		t.Errorf("readCPULedger = %+v", l)
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	raw := func() map[string]float64 {
		return map[string]float64{"latency_p50_ms": 600, "ttft_p50_ms": 500, "goodput_rps": 400, "success_share": 0.5}
	}
	// Open loop, host 1.25x slow: 10000 of 20000 offered were served in 25 s.
	tl := &tally{attempted: 20000, good: 10000}
	v := raw()
	atReferenceSpeed(v, 1.25, tl, true)
	if !near(v["latency_p50_ms"], 480) || !near(v["ttft_p50_ms"], 400) || !near(v["goodput_rps"], 500) || !near(v["success_share"], 0.625) {
		t.Errorf("open loop at 1.25x: %v", v)
	}
	// A host slow enough that the reference would have served everything:
	// the good operations stop at what was offered and was not wrong.
	tl = &tally{attempted: 20000, good: 10000, failed: 100}
	v = raw()
	atReferenceSpeed(v, 3, tl, true)
	if !near(v["goodput_rps"], 400*1.99) || !near(v["success_share"], 0.995) {
		t.Errorf("open loop capped at the offer: %v", v)
	}
	// An open loop below capacity served all it was offered: its times are
	// restated, its count is not, on a host slower or faster than reference.
	for _, h := range []float64{1.3, 0.9} {
		v = map[string]float64{"latency_p50_ms": 9, "ttft_p50_ms": 6, "goodput_rps": 60, "success_share": 1}
		atReferenceSpeed(v, h, &tally{attempted: 1500, good: 1500}, true)
		if !near(v["latency_p50_ms"], 9/h) || v["goodput_rps"] != 60 || v["success_share"] != 1 {
			t.Errorf("open loop below capacity at %vx: %v", h, v)
		}
	}
	// Closed loop: throughput scales, the share stands.
	v = raw()
	v["success_share"] = 1
	atReferenceSpeed(v, 0.8, &tally{attempted: 10000, good: 10000}, false)
	if !near(v["goodput_rps"], 320) || v["success_share"] != 1 || !near(v["latency_p50_ms"], 750) {
		t.Errorf("closed loop at 0.8x: %v", v)
	}
}
