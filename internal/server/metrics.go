package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"repro/internal/pack"
	"repro/internal/prefixcache"
	"repro/internal/router"
)

// histogram is a fixed-bucket Prometheus histogram. Buckets are cumulative
// upper bounds; a +Inf bucket is implicit (Count).
type histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

func (h *histogram) observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
		}
	}
	h.sum += v
	h.count++
}

// Mean returns the average observation (0 when empty).
func (h *histogram) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

func (h *histogram) write(w io.Writer, name string) {
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(b, 'g', -1, 64), h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}

// packCounters are the decode counters kept per domain pack.
type packCounters struct {
	tokens       uint64
	solverChecks uint64
}

// Metrics is the daemon's hand-rolled Prometheus registry: a handful of
// counters, one gauge, and two histograms — enough for dashboards and the
// acceptance tests without pulling in a client library. Request and decode
// counters are labeled by domain pack; requests that fail before pack
// resolution (parse errors, unknown pack) carry an empty pack label.
type Metrics struct {
	mu sync.Mutex
	// requests[route][pack][code] counts completed HTTP requests.
	requests map[string]map[string]map[int]uint64
	rejected uint64 // 429 backpressure rejections (also in requests)
	timeouts uint64 // requests that hit their deadline
	batches  uint64 // core.DecodeRequests calls issued by the batcher

	batchSize *histogram // records per batch
	latency   *histogram // end-to-end request seconds (enqueue → reply)

	// perPack holds the decode counters, by domain pack: decoded tokens (from
	// core.Stats) and SMT checks attributable to served decodes. Snapshot's
	// totals are their sums.
	perPack map[string]*packCounters

	// Fault-isolation counters (DESIGN.md §10): every failed record of a
	// dispatched batch retires one lane; the two sub-causes worth alerting
	// on — solver budget exhaustion and recovered panics — are also counted
	// on their own. batcherRestarts counts batcher goroutine resurrections
	// after a panic escaped a batch.
	budgetExhausted uint64
	panicsRecovered uint64
	lanesRetired    uint64
	batcherRestarts uint64

	// Requests admitted past backpressure (a request still decoding has been
	// admitted but not yet counted in requests, so this is the honest
	// "accepted work" number) and SSE streaming responses.
	admitted uint64
	streams  uint64

	ttft *histogram // streaming time-to-first-chunk seconds (admission → first slot event)

	// router samples the batcher's state at scrape time: queued and
	// admitted-but-unfinished jobs, and the summed batch wall time. The
	// inflight gauge is the backpressure-honest one: a full in-flight batch
	// with an empty queue still reports its jobs there.
	router func() router.Stats
	// packStats samples per-pack runtime state (prefix-cache counters,
	// reload counters) from the pack registry at scrape time. May be nil.
	packStats func() map[string]pack.RuntimeStats
}

func newMetrics(routerStats func() router.Stats, packStats func() map[string]pack.RuntimeStats) *Metrics {
	return &Metrics{
		requests:  map[string]map[string]map[int]uint64{},
		perPack:   map[string]*packCounters{},
		batchSize: newHistogram([]float64{1, 2, 4, 8, 16, 32, 64}),
		latency:   newHistogram([]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}),
		ttft:      newHistogram([]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}),
		router:    routerStats,
		packStats: packStats,
	}
}

func (m *Metrics) countRequest(route, pk string, code int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byPack := m.requests[route]
	if byPack == nil {
		byPack = map[string]map[int]uint64{}
		m.requests[route] = byPack
	}
	byCode := byPack[pk]
	if byCode == nil {
		byCode = map[int]uint64{}
		byPack[pk] = byCode
	}
	byCode[code]++
	if code == 429 {
		m.rejected++
	}
}

func (m *Metrics) countTimeout() {
	m.mu.Lock()
	m.timeouts++
	m.mu.Unlock()
}

func (m *Metrics) observeBatch(size int) {
	m.mu.Lock()
	m.batches++
	m.batchSize.observe(float64(size))
	m.mu.Unlock()
}

func (m *Metrics) observeLatency(seconds float64) {
	m.mu.Lock()
	m.latency.observe(seconds)
	m.mu.Unlock()
}

// noteAdmitted records one request past admission control.
func (m *Metrics) noteAdmitted() {
	m.mu.Lock()
	m.admitted++
	m.mu.Unlock()
}

func (m *Metrics) countStream() {
	m.mu.Lock()
	m.streams++
	m.mu.Unlock()
}

func (m *Metrics) observeTTFT(seconds float64) {
	m.mu.Lock()
	m.ttft.observe(seconds)
	m.mu.Unlock()
}

func (m *Metrics) countDecode(pk string, tokens int, solverChecks uint64) {
	m.mu.Lock()
	pc := m.perPack[pk]
	if pc == nil {
		pc = &packCounters{}
		m.perPack[pk] = pc
	}
	pc.tokens += uint64(tokens)
	pc.solverChecks += solverChecks
	m.mu.Unlock()
}

// countLaneRetired records one failed batch record, flagged by cause.
func (m *Metrics) countLaneRetired(budget, panicked bool) {
	m.mu.Lock()
	m.lanesRetired++
	if budget {
		m.budgetExhausted++
	}
	if panicked {
		m.panicsRecovered++
	}
	m.mu.Unlock()
}

func (m *Metrics) countBatcherRestart() {
	m.mu.Lock()
	m.batcherRestarts++
	m.mu.Unlock()
}

// budgetTrips reads the budget-exhaustion counter (healthz degradation).
func (m *Metrics) budgetTrips() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.budgetExhausted
}

// PackSnapshot is one pack's slice of the counters.
type PackSnapshot struct {
	Requests map[string]map[int]uint64 // route → code

	Tokens       uint64
	SolverChecks uint64

	// Prefix and the reload counters are sampled from the pack registry.
	Prefix       prefixcache.Stats
	Reloads      uint64
	ReloadErrors uint64
}

// Snapshot is a programmatic view of the counters, for tests and the serve
// benchmark (which would otherwise scrape and parse the text endpoint).
// Top-level fields aggregate over packs; Packs splits them out.
type Snapshot struct {
	Requests      map[string]map[int]uint64 // route → code, summed over packs
	Rejected      uint64
	Timeouts      uint64
	Batches       uint64
	BatchedRecs   uint64
	MeanBatchSize float64
	Tokens        uint64
	SolverChecks  uint64
	QueueDepth    int
	// Inflight counts requests admitted but not yet answered — queued plus
	// decoding. A full in-flight batch with an empty queue shows up here,
	// which the queue gauge alone would report as zero load.
	Inflight int

	BudgetExhausted uint64
	PanicsRecovered uint64
	LanesRetired    uint64
	BatcherRestarts uint64

	// Cumulative admissions and SSE streaming responses.
	Admitted uint64
	Streams  uint64

	// Prefix sums the per-pack prefix-cache counters at snapshot time; the
	// zero value when no pack has a cache.
	Prefix prefixcache.Stats

	// Packs holds the per-pack split (requests, decode counters, prefix
	// cache, reloads), keyed by pack name.
	Packs map[string]PackSnapshot
}

// Snapshot returns a copy of the current counter state.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}

func (m *Metrics) snapshotLocked() Snapshot {
	s := Snapshot{
		Requests: make(map[string]map[int]uint64, len(m.requests)),
		Rejected: m.rejected,
		Timeouts: m.timeouts,
		Batches:  m.batches,
		// One histogram observation per batch, valued at its size: the sum
		// is total records batched and the mean is records per batch.
		BatchedRecs:   uint64(m.batchSize.sum),
		MeanBatchSize: m.batchSize.mean(),

		BudgetExhausted: m.budgetExhausted,
		PanicsRecovered: m.panicsRecovered,
		LanesRetired:    m.lanesRetired,
		BatcherRestarts: m.batcherRestarts,

		Admitted: m.admitted,
		Streams:  m.streams,

		Packs: map[string]PackSnapshot{},
	}
	packSnap := func(pk string) PackSnapshot {
		ps, ok := s.Packs[pk]
		if !ok {
			ps = PackSnapshot{Requests: map[string]map[int]uint64{}}
		}
		return ps
	}
	for route, byPack := range m.requests {
		agg := make(map[int]uint64)
		for pk, byCode := range byPack {
			ps := packSnap(pk)
			cp := make(map[int]uint64, len(byCode))
			for c, n := range byCode {
				cp[c] = n
				agg[c] += n
			}
			ps.Requests[route] = cp
			s.Packs[pk] = ps
		}
		s.Requests[route] = agg
	}
	for pk, pc := range m.perPack {
		ps := packSnap(pk)
		ps.Tokens = pc.tokens
		ps.SolverChecks = pc.solverChecks
		s.Packs[pk] = ps

		s.Tokens += pc.tokens
		s.SolverChecks += pc.solverChecks
	}
	rs := m.router()
	s.QueueDepth, s.Inflight = rs.Queued, rs.Inflight
	if m.packStats != nil {
		for pk, rt := range m.packStats() {
			ps := packSnap(pk)
			ps.Prefix = rt.Prefix
			ps.Reloads = rt.Reloads
			ps.ReloadErrors = rt.ReloadErrors
			s.Packs[pk] = ps

			s.Prefix.Hits += rt.Prefix.Hits
			s.Prefix.Misses += rt.Prefix.Misses
			s.Prefix.Evictions += rt.Prefix.Evictions
			s.Prefix.Inserts += rt.Prefix.Inserts
			s.Prefix.BytesResident += rt.Prefix.BytesResident
			s.Prefix.Entries += rt.Prefix.Entries
		}
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, in deterministic order.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP lejitd_requests_total Completed HTTP requests by route, domain pack, and status code.")
	fmt.Fprintln(w, "# TYPE lejitd_requests_total counter")
	routes := make([]string, 0, len(m.requests))
	for r := range m.requests {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		packs := make([]string, 0, len(m.requests[r]))
		for pk := range m.requests[r] {
			packs = append(packs, pk)
		}
		sort.Strings(packs)
		for _, pk := range packs {
			codes := make([]int, 0, len(m.requests[r][pk]))
			for c := range m.requests[r][pk] {
				codes = append(codes, c)
			}
			sort.Ints(codes)
			for _, c := range codes {
				fmt.Fprintf(w, "lejitd_requests_total{route=%q,pack=%q,code=\"%d\"} %d\n", r, pk, c, m.requests[r][pk][c])
			}
		}
	}

	fmt.Fprintln(w, "# HELP lejitd_rejected_total Requests rejected by queue backpressure (HTTP 429).")
	fmt.Fprintln(w, "# TYPE lejitd_rejected_total counter")
	fmt.Fprintf(w, "lejitd_rejected_total %d\n", m.rejected)

	fmt.Fprintln(w, "# HELP lejitd_timeouts_total Requests that hit their deadline before a result.")
	fmt.Fprintln(w, "# TYPE lejitd_timeouts_total counter")
	fmt.Fprintf(w, "lejitd_timeouts_total %d\n", m.timeouts)

	fmt.Fprintln(w, "# HELP lejitd_batches_total Micro-batches dispatched to the decode pool.")
	fmt.Fprintln(w, "# TYPE lejitd_batches_total counter")
	fmt.Fprintf(w, "lejitd_batches_total %d\n", m.batches)

	rs := m.router()
	fmt.Fprintln(w, "# HELP lejitd_queue_depth Requests waiting in the admission queue.")
	fmt.Fprintln(w, "# TYPE lejitd_queue_depth gauge")
	fmt.Fprintf(w, "lejitd_queue_depth %d\n", rs.Queued)
	fmt.Fprintln(w, "# HELP lejitd_inflight Requests admitted but not yet answered (queued plus decoding).")
	fmt.Fprintln(w, "# TYPE lejitd_inflight gauge")
	fmt.Fprintf(w, "lejitd_inflight %d\n", rs.Inflight)
	fmt.Fprintln(w, "# HELP lejitd_batch_seconds_total Wall time of the micro-batches, dispatch to last result; Retry-After divides it by the batch count.")
	fmt.Fprintln(w, "# TYPE lejitd_batch_seconds_total counter")
	fmt.Fprintf(w, "lejitd_batch_seconds_total %g\n", rs.BatchSeconds)

	fmt.Fprintln(w, "# HELP lejitd_admitted_total Requests admitted past backpressure (includes in-flight).")
	fmt.Fprintln(w, "# TYPE lejitd_admitted_total counter")
	fmt.Fprintf(w, "lejitd_admitted_total %d\n", m.admitted)

	fmt.Fprintln(w, "# HELP lejitd_streams_total Requests answered as SSE streams.")
	fmt.Fprintln(w, "# TYPE lejitd_streams_total counter")
	fmt.Fprintf(w, "lejitd_streams_total %d\n", m.streams)

	fmt.Fprintln(w, "# HELP lejitd_batch_size Records coalesced per micro-batch.")
	fmt.Fprintln(w, "# TYPE lejitd_batch_size histogram")
	m.batchSize.write(w, "lejitd_batch_size")

	fmt.Fprintln(w, "# HELP lejitd_request_duration_seconds End-to-end decode request latency.")
	fmt.Fprintln(w, "# TYPE lejitd_request_duration_seconds histogram")
	m.latency.write(w, "lejitd_request_duration_seconds")

	fmt.Fprintln(w, "# HELP lejitd_stream_ttft_seconds Streaming time to first slot event (admission to first chunk).")
	fmt.Fprintln(w, "# TYPE lejitd_stream_ttft_seconds histogram")
	m.ttft.write(w, "lejitd_stream_ttft_seconds")

	packNames := make([]string, 0, len(m.perPack))
	for pk := range m.perPack {
		packNames = append(packNames, pk)
	}
	sort.Strings(packNames)

	fmt.Fprintln(w, "# HELP lejitd_tokens_total Tokens decoded for served requests, by domain pack.")
	fmt.Fprintln(w, "# TYPE lejitd_tokens_total counter")
	for _, pk := range packNames {
		fmt.Fprintf(w, "lejitd_tokens_total{pack=%q} %d\n", pk, m.perPack[pk].tokens)
	}

	fmt.Fprintln(w, "# HELP lejitd_solver_checks_total SMT solver checks attributable to served requests, by domain pack.")
	fmt.Fprintln(w, "# TYPE lejitd_solver_checks_total counter")
	for _, pk := range packNames {
		fmt.Fprintf(w, "lejitd_solver_checks_total{pack=%q} %d\n", pk, m.perPack[pk].solverChecks)
	}

	if m.packStats != nil {
		stats := m.packStats()
		names := make([]string, 0, len(stats))
		for pk := range stats {
			names = append(names, pk)
		}
		sort.Strings(names)

		fmt.Fprintln(w, "# HELP lejitd_prefix_hits_total Decodes warm-started from the cross-request prefix cache, by domain pack.")
		fmt.Fprintln(w, "# TYPE lejitd_prefix_hits_total counter")
		for _, pk := range names {
			fmt.Fprintf(w, "lejitd_prefix_hits_total{pack=%q} %d\n", pk, stats[pk].Prefix.Hits)
		}

		fmt.Fprintln(w, "# HELP lejitd_prefix_misses_total Prefix-cache lookups that found no usable snapshot, by domain pack.")
		fmt.Fprintln(w, "# TYPE lejitd_prefix_misses_total counter")
		for _, pk := range names {
			fmt.Fprintf(w, "lejitd_prefix_misses_total{pack=%q} %d\n", pk, stats[pk].Prefix.Misses)
		}

		fmt.Fprintln(w, "# HELP lejitd_prefix_evictions_total Prompt snapshots dropped from the prefix cache (LRU capacity, or a stale rule epoch seen by a lookup or replaced by an insert), by domain pack.")
		fmt.Fprintln(w, "# TYPE lejitd_prefix_evictions_total counter")
		for _, pk := range names {
			fmt.Fprintf(w, "lejitd_prefix_evictions_total{pack=%q} %d\n", pk, stats[pk].Prefix.Evictions)
		}

		fmt.Fprintln(w, "# HELP lejitd_prefix_cache_bytes Bytes pinned by resident prefix-cache snapshots, by domain pack.")
		fmt.Fprintln(w, "# TYPE lejitd_prefix_cache_bytes gauge")
		for _, pk := range names {
			fmt.Fprintf(w, "lejitd_prefix_cache_bytes{pack=%q} %d\n", pk, stats[pk].Prefix.BytesResident)
		}

		fmt.Fprintln(w, "# HELP lejitd_prefix_cache_entries Resident prefix-cache snapshots, by domain pack.")
		fmt.Fprintln(w, "# TYPE lejitd_prefix_cache_entries gauge")
		for _, pk := range names {
			fmt.Fprintf(w, "lejitd_prefix_cache_entries{pack=%q} %d\n", pk, stats[pk].Prefix.Entries)
		}

		fmt.Fprintln(w, "# HELP lejitd_pack_reloads_total Successful hot reloads of a pack's rule set.")
		fmt.Fprintln(w, "# TYPE lejitd_pack_reloads_total counter")
		for _, pk := range names {
			fmt.Fprintf(w, "lejitd_pack_reloads_total{pack=%q} %d\n", pk, stats[pk].Reloads)
		}

		fmt.Fprintln(w, "# HELP lejitd_pack_reload_errors_total Rejected hot reloads (parse, compile, or satisfiability failure); the prior rules kept serving.")
		fmt.Fprintln(w, "# TYPE lejitd_pack_reload_errors_total counter")
		for _, pk := range names {
			fmt.Fprintf(w, "lejitd_pack_reload_errors_total{pack=%q} %d\n", pk, stats[pk].ReloadErrors)
		}
	}

	fmt.Fprintln(w, "# HELP lejitd_budget_exhausted_total Requests whose solver budget or deadline ran out mid-decode (HTTP 503).")
	fmt.Fprintln(w, "# TYPE lejitd_budget_exhausted_total counter")
	fmt.Fprintf(w, "lejitd_budget_exhausted_total %d\n", m.budgetExhausted)

	fmt.Fprintln(w, "# HELP lejitd_panics_recovered_total Decoding panics converted into per-request failures (HTTP 500).")
	fmt.Fprintln(w, "# TYPE lejitd_panics_recovered_total counter")
	fmt.Fprintf(w, "lejitd_panics_recovered_total %d\n", m.panicsRecovered)

	fmt.Fprintln(w, "# HELP lejitd_lanes_retired_total Batch records that failed while their batch-mates kept decoding.")
	fmt.Fprintln(w, "# TYPE lejitd_lanes_retired_total counter")
	fmt.Fprintf(w, "lejitd_lanes_retired_total %d\n", m.lanesRetired)

	fmt.Fprintln(w, "# HELP lejitd_batcher_restarts_total Batcher goroutine restarts after an escaped panic.")
	fmt.Fprintln(w, "# TYPE lejitd_batcher_restarts_total counter")
	fmt.Fprintf(w, "lejitd_batcher_restarts_total %d\n", m.batcherRestarts)
}
