package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/router"
	"repro/internal/rules"
)

// Config assembles a Server. Packs and DefaultPack are required; everything
// else has serving-sane defaults.
type Config struct {
	// Packs is the domain-pack registry the server decodes under: each
	// request selects a pack by name ("pack" field, default DefaultPack) and
	// runs against that pack's engine, rules, and schema. Kernel worker
	// groups, weight quantization and prefix caches are per-pack state
	// (pack.Definition, pack.NewRegistry).
	Packs *pack.Registry
	// DefaultPack names the pack used by requests that do not select one.
	DefaultPack string

	// Replicas is the engine shard count (default 1). Each shard runs its
	// own micro-batcher and engine clones behind a load-aware router; rule
	// compilation and per-pack prefix caches are shared across shards.
	Replicas int
	// ShardFailureThreshold drains a shard (fresh engine clones, queued jobs
	// redistributed) once that many of its lanes were retired by budget
	// exhaustion or recovered panics since its last drain. Default 8;
	// negative disables self-draining.
	ShardFailureThreshold int
	// BatchWindow is how long each shard's batcher waits after the first
	// request for more to coalesce (default 2ms).
	BatchWindow time.Duration
	// MaxBatch caps records per micro-batch (default 32).
	MaxBatch int
	// QueueDepth bounds total queued admissions across shards; full queues
	// answer 429 with Retry-After (default 256, split evenly per shard).
	QueueDepth int
	// Workers is the goroutine budget per micro-batch (default GOMAXPROCS):
	// a batch's lanes are cut into at most that many lock-step groups.
	Workers int
	// Timeout is the default per-request deadline (default 30s); requests
	// may lower or raise it via timeout_ms.
	Timeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 30s).
	DrainTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Seed is the base for server-assigned RNG seeds when a request does
	// not pin its own.
	Seed int64
	// DegradedThreshold makes /healthz report status "degraded" (still HTTP
	// 200, so load balancers keep the instance) once at least this many
	// requests have exhausted their solver budget. 0 disables degradation.
	DegradedThreshold int
	// Logf, when set, receives serving log lines.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.ShardFailureThreshold == 0 {
		c.ShardFailureThreshold = 8
	} else if c.ShardFailureThreshold < 0 {
		c.ShardFailureThreshold = 0 // router treats 0 as disabled
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
}

// Server is the lejitd HTTP handler plus its sharded micro-batching pipeline:
// admission control and response writing live here, dispatch and decoding live
// in the router (one micro-batcher per engine shard).
type Server struct {
	cfg         Config
	packs       *pack.Registry
	defaultPack string
	mux         *http.ServeMux
	router      *router.Router
	metrics     *Metrics
	started     time.Time

	draining atomic.Bool
	seedSeq  atomic.Int64
}

// New builds a Server and starts its shard batcher goroutines. Callers must
// Close it (Serve does so on return).
func New(cfg Config) (*Server, error) {
	if cfg.Packs == nil {
		return nil, fmt.Errorf("server: Packs is required")
	}
	cfg.fill()
	s := &Server{
		cfg:         cfg,
		packs:       cfg.Packs,
		defaultPack: cfg.DefaultPack,
		mux:         http.NewServeMux(),
		started:     time.Now(),
	}
	if _, ok := s.packs.Get(s.defaultPack); !ok {
		return nil, fmt.Errorf("server: default pack %q is not registered (have %v)", s.defaultPack, s.packs.Names())
	}
	perShardQueue := cfg.QueueDepth / cfg.Replicas
	if perShardQueue < 1 {
		perShardQueue = 1
	}
	s.router = router.New(router.Config{
		Replicas:         cfg.Replicas,
		BatchWindow:      cfg.BatchWindow,
		MaxBatch:         cfg.MaxBatch,
		QueueDepth:       perShardQueue,
		Workers:          cfg.Workers,
		FailureThreshold: cfg.ShardFailureThreshold,
		Logf:             cfg.Logf,
		ObserveBatch:     func(shard, size int) { s.metrics.observeBatch(size) },
		OnLaneError: func(shard int, err error) {
			// Classify the retired lane here, not in the response writer: a
			// handler that already gave up on its deadline never reads Resp,
			// but the failure still happened and must be counted.
			var pe *core.PanicError
			s.metrics.countLaneRetired(errors.Is(err, core.ErrBudget), errors.As(err, &pe))
		},
		OnRestart: func(shard int) { s.metrics.countBatcherRestart() },
		OnDrain:   func(shard, moved int) { s.metrics.countShardDrain() },
	})
	s.metrics = newMetrics(s.router.Load, s.router.Stats, s.packs.Stats)
	s.mux.HandleFunc("/v1/impute", func(w http.ResponseWriter, r *http.Request) { s.handleDecode(w, r, "impute") })
	s.mux.HandleFunc("/v1/generate", func(w http.ResponseWriter, r *http.Request) { s.handleDecode(w, r, "generate") })
	s.mux.HandleFunc("/v1/check", s.handleCheck)
	s.mux.HandleFunc("/v1/packs", s.handlePacks)
	s.mux.HandleFunc("/v1/packs/reload", s.handlePackReload)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Packs exposes the server's pack registry (cmd/lejitd, tests).
func (s *Server) Packs() *pack.Registry { return s.packs }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the server's counters (tests, benchmarks).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Router exposes the engine-shard router (tests, cmd/lejitd logging).
func (s *Server) Router() *router.Router { return s.router }

// Close stops the shard batchers. Safe to call more than once. Requests
// admitted after Close time out rather than decode; call only once handlers
// are drained (Serve sequences this correctly).
func (s *Server) Close() { s.router.Close() }

// readHeaderTimeout bounds how long a connection may take to deliver its
// request headers; without it a client that connects and stalls holds a
// connection and a goroutine for as long as it likes. A var only so the
// stalled-header test can shorten it.
var readHeaderTimeout = 10 * time.Second

// Serve accepts connections on l until ctx is cancelled, then drains: new
// requests are refused with 503, in-flight requests finish (bounded by
// DrainTimeout), and only then is the batcher stopped. This is the SIGTERM
// path — cmd/lejitd passes a signal-cancelled context.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	hs := &http.Server{Handler: s, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	queued, inflight := s.router.Load()
	s.logf("server: draining (%d queued, %d in flight)", queued, inflight)
	s.draining.Store(true)
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(sctx) // waits for in-flight handlers
	s.Close()
	s.logf("server: drained")
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// retryAfter estimates when capacity frees up, from live backlog: the
// admitted-but-unfinished count divided into micro-batches, each taking about
// one batch window to dispatch. Clamped to [1s, 30s] — the old hardcoded "1"
// told a client staring at a 200-deep queue to hammer the daemon once a
// second.
func (s *Server) retryAfter() string {
	_, inflight := s.router.Load()
	batches := inflight/s.cfg.MaxBatch + 1
	est := time.Duration(batches) * s.cfg.BatchWindow
	secs := int64((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.FormatInt(secs, 10)
}

// decodeFnFor maps a request mode to its decode function. The baselines are
// not token-interruptible, so they only honor cancellation between attempts.
func (s *Server) decodeFnFor(mode string) (core.DecodeCtxFn, error) {
	var base core.DecodeFn
	switch mode {
	case ModeLeJIT:
		return nil, nil // engine default: ctx-aware guided decoding
	case ModeVanilla:
		base = (*core.Engine).Vanilla
	case ModeRejection:
		base = (*core.Engine).Rejection
	case ModePostHoc:
		base = (*core.Engine).PostHoc
	default:
		return nil, badRequestf("unknown mode %q", mode)
	}
	return func(ctx context.Context, e *core.Engine, known rules.Record, rng *rand.Rand) (core.Result, error) {
		if err := ctx.Err(); err != nil {
			return core.Result{}, err
		}
		return base(e, known, rng)
	}, nil
}

// handleDecode serves /v1/impute and /v1/generate.
func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request, route string) {
	code, pk := s.serveDecode(w, r, route)
	s.metrics.countRequest(route, pk, code)
}

// resolvePack maps a request's pack field (empty → default) to its current
// bundle.
func (s *Server) resolvePack(name string) (*pack.Compiled, error) {
	if name == "" {
		name = s.defaultPack
	}
	pk, ok := s.packs.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown pack %q (have %v)", name, s.packs.Names())
	}
	return pk, nil
}

// serveDecode returns the HTTP status and the resolved pack name ("" when
// the request failed before pack resolution).
func (s *Server) serveDecode(w http.ResponseWriter, r *http.Request, route string) (int, string) {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST required", ""), ""
	}
	if s.draining.Load() {
		return writeError(w, http.StatusServiceUnavailable, "server is draining", "draining"), ""
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	// Parsed without a schema: record validation needs the pack, which the
	// body itself selects.
	req, err := ParseDecodeRequest(body, nil, route == "impute")
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return writeError(w, http.StatusRequestEntityTooLarge, "request body too large", ""), ""
		}
		return writeError(w, http.StatusBadRequest, err.Error(), ""), ""
	}
	pk, err := s.resolvePack(req.Pack)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error(), "unknown_pack"), ""
	}
	packName := pk.Def.Name
	if req.Known != nil && pk.Schema != nil {
		if err := validateRecord(req.Known, pk.Schema); err != nil {
			return writeError(w, http.StatusBadRequest, err.Error(), ""), packName
		}
	}
	decode, err := s.decodeFnFor(req.Mode)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error(), ""), packName
	}

	// Clients may shorten their deadline but never extend it past the
	// server's: an uncapped timeout_ms would let one caller pin a batcher
	// lane (and its engine clone) for arbitrarily long.
	timeout := s.cfg.Timeout
	if req.TimeoutMs > 0 {
		if t := time.Duration(req.TimeoutMs) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Each request without a pinned seed gets its own splitmix64-derived
	// stream; the old affine seed+seq*7919 scheme let two servers with
	// nearby base seeds replay each other's request streams.
	seed := core.MixSeed(s.cfg.Seed, int(s.seedSeq.Add(1)))
	if req.Seed != nil {
		seed = *req.Seed
	}
	j := &router.Job{
		Ctx:           ctx,
		Prompt:        req.Known,
		Pack:          pk,
		Seed:          seed,
		Decode:        decode,
		NoPrefixCache: req.NoPrefixCache,
		Lookahead:     req.Lookahead,
		Start:         time.Now(),
		Resp:          make(chan router.Result, 1),
	}
	// Streaming requests thread an emit hook through the job context. The
	// channel holds every slot (each emits exactly once), so the decoding
	// goroutine never blocks on a slow client — the send always has room.
	var chunks chan StreamChunk
	if req.Stream {
		chunks = make(chan StreamChunk, len(pk.Engine.Slots()))
		j.Ctx = core.WithEmit(j.Ctx, func(slot int, text string) {
			chunks <- StreamChunk{Slot: slot, Text: text}
		})
	}
	// Bounded admission: never block the handler on full queues.
	if _, ok := s.router.Submit(j); !ok {
		w.Header().Set("Retry-After", s.retryAfter())
		return writeError(w, http.StatusTooManyRequests, "queue full", "overloaded"), packName
	}
	s.metrics.noteAdmitted()

	if req.Stream {
		return s.streamDecodeResponse(w, ctx, pk, j, chunks), packName
	}
	select {
	case res := <-j.Resp:
		s.metrics.observeLatency(time.Since(j.Start).Seconds())
		return s.writeDecodeResult(w, pk, res), packName
	case <-ctx.Done():
		// The job may still be queued or decoding; its context is cancelled,
		// so its shard will abandon it and nobody reads Resp (buffered).
		s.metrics.observeLatency(time.Since(j.Start).Seconds())
		s.metrics.countTimeout()
		return writeError(w, http.StatusGatewayTimeout, "deadline exceeded", "timeout"), packName
	}
}

// decodeOutcome is a decode result mapped to its HTTP shape, shared by the
// unary writer and the SSE terminal event.
type decodeOutcome struct {
	code       int
	status     string // machine-readable error status ("" on success)
	errMsg     string
	retryAfter bool // 503s that mean "try again later" carry Retry-After
	body       *DecodeResponse
}

// buildDecodeOutcome classifies one router result. On success it also counts
// the decode and checks compliance.
func (s *Server) buildDecodeOutcome(pk *pack.Compiled, res router.Result) decodeOutcome {
	if res.Err != nil {
		var pe *core.PanicError
		switch {
		case errors.Is(res.Err, context.DeadlineExceeded), errors.Is(res.Err, context.Canceled):
			s.metrics.countTimeout()
			return decodeOutcome{code: http.StatusGatewayTimeout, status: "timeout", errMsg: "deadline exceeded"}
		case errors.Is(res.Err, core.ErrBudget):
			// The solver gave up inside its budget, not a proof the request
			// is bad: the caller may retry (ideally elsewhere or later).
			return decodeOutcome{code: http.StatusServiceUnavailable, status: "budget", errMsg: res.Err.Error(), retryAfter: true}
		case errors.Is(res.Err, router.ErrOverloaded):
			// Admitted, then orphaned by a shard drain with no sibling room.
			return decodeOutcome{code: http.StatusServiceUnavailable, status: "overloaded", errMsg: res.Err.Error(), retryAfter: true}
		case isInfeasible(res.Err):
			return decodeOutcome{code: http.StatusUnprocessableEntity, status: "infeasible", errMsg: res.Err.Error()}
		case errors.As(res.Err, &pe):
			// The lane panicked and was retired alone; its batch-mates are
			// unaffected. The stack stays in the server log, not the reply.
			return decodeOutcome{code: http.StatusInternalServerError, status: "panic", errMsg: res.Err.Error()}
		default:
			return decodeOutcome{code: http.StatusInternalServerError, errMsg: res.Err.Error()}
		}
	}
	st := res.Res.Stats
	s.metrics.countDecode(pk.Def.Name, st.Tokens, st.SolverChecks, st.SpecAcceptedTokens, st.SpecRollbacks)
	line, err := pk.FormatRecord(res.Res.Rec)
	if err != nil {
		return decodeOutcome{code: http.StatusInternalServerError, errMsg: err.Error()}
	}
	out := &DecodeResponse{
		Record:    res.Res.Rec,
		Line:      line,
		Compliant: true,
		BatchSize: res.BatchSize,
		Pack:      pk.Def.Name,
		Epoch:     pk.EpochHex(),
		Stats: StatsJSON{
			Tokens: st.Tokens, MaskedSteps: st.MaskedSteps, ForcedSteps: st.ForcedSteps,
			SolverChecks: st.SolverChecks, Attempts: st.Attempts,
			SpecAcceptedTokens: st.SpecAcceptedTokens, SpecRollbacks: st.SpecRollbacks,
		},
	}
	if pk.Rules != nil {
		viol, err := pk.Rules.Violations(res.Res.Rec)
		if err != nil {
			return decodeOutcome{code: http.StatusInternalServerError, errMsg: err.Error()}
		}
		out.Violations = viol
		out.Compliant = len(viol) == 0
	}
	return decodeOutcome{code: http.StatusOK, body: out}
}

func (s *Server) writeDecodeResult(w http.ResponseWriter, pk *pack.Compiled, res router.Result) int {
	o := s.buildDecodeOutcome(pk, res)
	if o.code != http.StatusOK {
		if o.retryAfter {
			w.Header().Set("Retry-After", s.retryAfter())
		}
		return writeError(w, o.code, o.errMsg, o.status)
	}
	return writeJSON(w, http.StatusOK, o.body)
}

// handleCheck serves /v1/check: pure rule evaluation, no queue, no decode.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	code, pk := s.serveCheck(w, r)
	s.metrics.countRequest("check", pk, code)
}

func (s *Server) serveCheck(w http.ResponseWriter, r *http.Request) (int, string) {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST required", ""), ""
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, err := ParseCheckRequest(body, nil)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return writeError(w, http.StatusRequestEntityTooLarge, "request body too large", ""), ""
		}
		return writeError(w, http.StatusBadRequest, err.Error(), ""), ""
	}
	pk, err := s.resolvePack(req.Pack)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error(), "unknown_pack"), ""
	}
	packName := pk.Def.Name
	if pk.Schema != nil {
		if err := validateRecord(req.Record, pk.Schema); err != nil {
			return writeError(w, http.StatusBadRequest, err.Error(), ""), packName
		}
	}
	if pk.Rules == nil {
		return writeError(w, http.StatusNotImplemented, "pack has no rule set loaded", ""), packName
	}
	viol, err := pk.Rules.Violations(req.Record)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error(), ""), packName
	}
	if viol == nil {
		viol = []string{}
	}
	return writeJSON(w, http.StatusOK, CheckResponse{Compliant: len(viol) == 0, Violations: viol}), packName
}

// handlePacks serves GET /v1/packs: the registry listing with live epoch,
// generation, and reload counters per pack.
func (s *Server) handlePacks(w http.ResponseWriter, r *http.Request) {
	code := s.servePacks(w, r)
	s.metrics.countRequest("packs", "", code)
}

func (s *Server) servePacks(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, "GET required", "")
	}
	infos := s.packs.List()
	out := PacksResponse{Default: s.defaultPack, Packs: make([]PackInfoJSON, 0, len(infos))}
	for _, info := range infos {
		out.Packs = append(out.Packs, PackInfoJSON{
			Name: info.Name, Version: info.Version,
			Epoch:      fmt.Sprintf("%016x", info.Epoch),
			Generation: info.Generation,
			Rules:      info.Rules, Fields: info.Fields,
			Reloads: info.Reloads, ReloadErrs: info.ReloadErrors,
			Default: info.Name == s.defaultPack,
		})
	}
	return writeJSON(w, http.StatusOK, out)
}

// handlePackReload serves POST /v1/packs/reload: swap one pack's rule set
// from source text. Parsing, compilation, and the satisfiability pre-check
// run here — off the decode hot path — and the registry swaps atomically, so
// in-flight requests finish on the epoch they were admitted under and the
// next admission sees the new rules. On any error the old rules keep serving.
func (s *Server) handlePackReload(w http.ResponseWriter, r *http.Request) {
	code, pk := s.servePackReload(w, r)
	s.metrics.countRequest("reload", pk, code)
}

func (s *Server) servePackReload(w http.ResponseWriter, r *http.Request) (int, string) {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST required", ""), ""
	}
	if s.draining.Load() {
		return writeError(w, http.StatusServiceUnavailable, "server is draining", "draining"), ""
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, err := ParseReloadRequest(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return writeError(w, http.StatusRequestEntityTooLarge, "request body too large", ""), ""
		}
		return writeError(w, http.StatusBadRequest, err.Error(), ""), ""
	}
	next, err := s.packs.Reload(req.Pack, req.Rules)
	if err != nil {
		var unknown pack.ErrUnknownPack
		if errors.As(err, &unknown) {
			return writeError(w, http.StatusNotFound, err.Error(), "unknown_pack"), ""
		}
		return writeError(w, http.StatusBadRequest, err.Error(), "bad_rules"), req.Pack
	}
	s.logf("server: pack %s reloaded: epoch %s generation %d", req.Pack, next.EpochHex(), next.Generation)
	nrules := 0
	if next.Rules != nil {
		nrules = len(next.Rules.Rules)
	}
	return writeJSON(w, http.StatusOK, ReloadResponse{
		Pack: req.Pack, Epoch: next.EpochHex(), Generation: next.Generation, Rules: nrules,
	}), req.Pack
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	status := "ok"
	trips := s.metrics.budgetTrips()
	if t := s.cfg.DegradedThreshold; t > 0 && trips >= uint64(t) {
		// Still HTTP 200: the instance serves fine-behaved requests; the
		// degraded status is an operator signal that budgets are tripping
		// (misconfigured budget, or a pathological rule set in the traffic).
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":           status,
		"uptime_s":         time.Since(s.started).Seconds(),
		"max_batch":        s.cfg.MaxBatch,
		"replicas":         s.router.Replicas(),
		"budget_exhausted": trips,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
	return code
}

func writeError(w http.ResponseWriter, code int, msg, status string) int {
	return writeJSON(w, code, ErrorResponse{Error: msg, Status: status})
}

// isInfeasible reports whether err is core.ErrInfeasible (no rule-compliant
// completion exists for the prompt).
func isInfeasible(err error) bool {
	var inf core.ErrInfeasible
	return errors.As(err, &inf)
}
