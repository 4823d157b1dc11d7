// Package router fronts N engine shards with load-aware dispatch. Each shard
// owns a micro-batcher goroutine and its own engine clones (one per domain
// pack, cloned lazily from the pack's compiled bundle — rule compilation
// happens once and the formula is shared read-only; see pack.Compiled). The
// per-pack prefix caches stay registry-owned: a clone shares its parent's
// cache pointer, so snapshots captured on one shard warm decodes on every
// other and hit rates survive sharding.
//
// Dispatch is load-aware and health-aware: Submit sends a job to the
// non-draining shard with the fewest admitted-but-unfinished jobs whose
// bounded queue has room. A shard whose decodes keep tripping the budget or
// panic barriers (FailureThreshold) drains itself: queued jobs are
// resubmitted to its siblings, its engine clones are discarded, and it
// rejoins with fresh state. Determinism makes this safe — output is a
// function of (prompt, seed) only, never of shard placement (DESIGN.md §16).
package router

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/rules"
)

// ErrOverloaded fails a job that was admitted but could not be placed: its
// shard drained and no sibling had queue room. Callers should surface it as
// backpressure (HTTP 503 + Retry-After), not as a decode failure.
var ErrOverloaded = errors.New("router: all shards at capacity")

// Job is one admitted decode request. The pack is pinned at admission time: a
// hot reload never retargets a queued job, it decodes on the epoch it was
// admitted under.
type Job struct {
	Ctx           context.Context
	Prompt        rules.Record // nil → unconditional generation
	Pack          *pack.Compiled
	Seed          int64
	Decode        core.DecodeCtxFn // nil → engine-default guided decode
	NoPrefixCache bool
	// Start is the admission stamp: the batch window of the batch this job
	// opens runs from it. Submit stamps it when the caller left it zero.
	Start time.Time
	// Resp must be buffered (cap ≥ 1): shards never block delivering to a
	// caller that already gave up on its deadline.
	Resp chan Result
}

// Result is one job's outcome, tagged with the shard that decoded it.
type Result struct {
	Res       core.Result
	Err       error
	BatchSize int
	Shard     int
}

// Config assembles a Router.
type Config struct {
	// Replicas is the shard count (default 1).
	Replicas int
	// BatchWindow is each shard's coalescing window (default 2ms), timed
	// from the admission (Job.Start) of the batch's first job: a job that
	// already waited that long in the queue dispatches at once, with
	// whatever is queued behind it.
	BatchWindow time.Duration
	// MaxBatch caps records per shard micro-batch (default 32).
	MaxBatch int
	// QueueDepth bounds each shard's admission queue (default 32).
	QueueDepth int
	// Workers is each shard's decode pool size (default GOMAXPROCS).
	Workers int
	// FailureThreshold drains a shard once this many of its lanes have been
	// retired by budget exhaustion or recovered panics since its last drain.
	// 0 disables self-draining.
	FailureThreshold int
	// Logf receives router log lines. May be nil.
	Logf func(format string, args ...any)

	// ObserveBatch, OnLaneError, OnRestart, and OnDrain are metrics hooks;
	// any may be nil. OnLaneError fires once per failed record with the
	// decoding shard and the record's error; OnDrain fires after a shard
	// drained with the number of jobs moved to siblings.
	ObserveBatch func(shard, size int)
	OnLaneError  func(shard int, err error)
	OnRestart    func(shard int)
	OnDrain      func(shard, moved int)
}

func (c *Config) fill() {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// shardEngine pairs a shard's engine clone with the compiled bundle it was
// cloned from, so a hot reload (new *pack.Compiled) forces a fresh clone.
type shardEngine struct {
	pk  *pack.Compiled
	eng *core.Engine
}

// shard is one replica: a bounded queue, a batcher goroutine, and its
// private engine clones. engines is owned by the batcher goroutine.
type shard struct {
	id      int
	queue   chan *Job
	engines map[string]shardEngine

	// inflight counts admitted-but-unfinished jobs: incremented at Submit,
	// decremented when the job's batch settles. This is the load signal
	// dispatch sorts on — unlike len(queue) it still sees a full batch that
	// has been dequeued but is mid-decode.
	inflight atomic.Int64
	failures atomic.Int64 // budget/panic lane retirements since last drain
	draining atomic.Bool
	batches  atomic.Uint64 // settled batches
	drains   atomic.Uint64
	batchNs  atomic.Int64 // their summed wall time, dispatch to settle
}

// ShardStats is one shard's live dispatch state.
type ShardStats struct {
	Shard    int    `json:"shard"`
	Queued   int    `json:"queued"`
	Inflight int    `json:"inflight"` // includes Queued
	Batches  uint64 `json:"batches"`  // settled micro-batches
	Failures uint64 `json:"failures"`
	Drains   uint64 `json:"drains"`
	Draining bool   `json:"draining"`
	// BatchSeconds is the summed wall time of the shard's batches, from
	// dispatch to the last result; over Batches it is the mean batch cost.
	BatchSeconds float64 `json:"batch_seconds"`
}

// Router fans jobs out across shards.
type Router struct {
	cfg    Config
	shards []*shard
	stop   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
}

// New builds a Router and starts one batcher goroutine per shard. Callers
// must Close it.
func New(cfg Config) *Router {
	cfg.fill()
	r := &Router{cfg: cfg, stop: make(chan struct{})}
	for i := 0; i < cfg.Replicas; i++ {
		sh := &shard{id: i, queue: make(chan *Job, cfg.QueueDepth), engines: map[string]shardEngine{}}
		r.shards = append(r.shards, sh)
		r.wg.Add(1)
		go r.batcher(sh)
	}
	return r
}

// Close stops every shard batcher. Jobs still queued are abandoned (their
// contexts expire); call only once callers are drained.
func (r *Router) Close() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// Replicas returns the shard count.
func (r *Router) Replicas() int { return len(r.shards) }

// Load returns the jobs waiting in shard queues and the total
// admitted-but-unfinished count (which includes the queued ones).
func (r *Router) Load() (queued, inflight int) {
	for _, sh := range r.shards {
		queued += len(sh.queue)
		inflight += int(sh.inflight.Load())
	}
	return queued, inflight
}

// Stats snapshots per-shard dispatch state, ordered by shard id.
func (r *Router) Stats() []ShardStats {
	out := make([]ShardStats, len(r.shards))
	for i, sh := range r.shards {
		out[i] = ShardStats{
			Shard: sh.id, Queued: len(sh.queue), Inflight: int(sh.inflight.Load()),
			Batches: sh.batches.Load(), Failures: uint64(sh.failures.Load()),
			Drains: sh.drains.Load(), Draining: sh.draining.Load(),
			BatchSeconds: time.Duration(sh.batchNs.Load()).Seconds(),
		}
	}
	return out
}

// Submit places j on the least-loaded healthy shard, returning the shard id.
// ok is false when every candidate queue is full (the caller should answer
// 429): admission never blocks. A zero j.Start is stamped now.
func (r *Router) Submit(j *Job) (shard int, ok bool) {
	if j.Start.IsZero() {
		j.Start = time.Now()
	}
	return r.submitExcept(j, -1)
}

// submitExcept is Submit skipping one shard id (drain redistribution).
func (r *Router) submitExcept(j *Job, except int) (int, bool) {
	cands := make([]*shard, 0, len(r.shards))
	for _, sh := range r.shards {
		if sh.id == except || sh.draining.Load() {
			continue
		}
		cands = append(cands, sh)
	}
	// Least-inflight first; stable sort keeps shard order as the tiebreak so
	// an idle fleet fills round-robin as each admission bumps the count.
	sort.SliceStable(cands, func(a, b int) bool {
		return cands[a].inflight.Load() < cands[b].inflight.Load()
	})
	for _, sh := range cands {
		sh.inflight.Add(1)
		select {
		case sh.queue <- j:
			return sh.id, true
		default:
			sh.inflight.Add(-1)
		}
	}
	return -1, false
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// batcher supervises one shard's queue consumer, mirroring the single-engine
// daemon's restart semantics: a panic that escapes a batch restarts the loop
// with the shard's engine clones discarded (the panic unwound through one).
func (r *Router) batcher(sh *shard) {
	defer r.wg.Done()
	for !r.batcherLoop(sh) {
		sh.engines = map[string]shardEngine{}
		if r.cfg.OnRestart != nil {
			r.cfg.OnRestart(sh.id)
		}
		r.logf("router: shard %d batcher restarted after panic", sh.id)
	}
}

// batcherLoop consumes sh.queue: it takes the first job and everything
// already queued behind it, then keeps the window open until BatchWindow
// after the first job's admission (or until MaxBatch), then the batch
// dispatches. Under load the first job has spent much or all of its window
// in the queue during the previous batch's decode, so the batch waits only
// for the rest, if any; a lone job on an idle shard waits the whole window.
// Returns true on clean stop; a recovered panic returns false for the
// supervisor.
func (r *Router) batcherLoop(sh *shard) (stopped bool) {
	defer func() {
		if rec := recover(); rec != nil {
			r.logf("router: shard %d batcher panicked: %v", sh.id, rec)
		}
	}()
	for {
		var first *Job
		select {
		case first = <-sh.queue:
		case <-r.stop:
			return true
		}
		batch := append(make([]*Job, 0, r.cfg.MaxBatch), first)
		// Queued jobs first, without blocking: an expired window must not
		// win a select against a job that is already waiting.
	queued:
		for len(batch) < r.cfg.MaxBatch {
			select {
			case j := <-sh.queue:
				batch = append(batch, j)
			default:
				break queued
			}
		}
		if wait := r.cfg.BatchWindow - time.Since(first.Start); wait > 0 && len(batch) < r.cfg.MaxBatch {
			timer := time.NewTimer(wait)
		collect:
			for len(batch) < r.cfg.MaxBatch {
				select {
				case j := <-sh.queue:
					batch = append(batch, j)
				case <-timer.C:
					break collect
				}
			}
			timer.Stop()
		}
		r.runBatch(sh, batch)
		if t := r.cfg.FailureThreshold; t > 0 && sh.failures.Load() >= int64(t) {
			r.drainShard(sh)
		}
	}
}

// runBatch splits one micro-batch by compiled pack and decodes the groups
// concurrently, each on the shard's clone of that pack's engine. Engines are
// resolved before the goroutines spawn (sh.engines belongs to the batcher
// goroutine). A panic escaping a group is re-raised here so the supervisor's
// restart semantics hold; the deferred inflight settle still runs.
func (r *Router) runBatch(sh *shard, batch []*Job) {
	defer sh.inflight.Add(-int64(len(batch)))
	defer func(t0 time.Time) {
		sh.batchNs.Add(int64(time.Since(t0)))
		sh.batches.Add(1)
	}(time.Now())
	order := make([]*pack.Compiled, 0, 1)
	groups := make(map[*pack.Compiled][]*Job, 1)
	for _, j := range batch {
		if _, ok := groups[j.Pack]; !ok {
			order = append(order, j.Pack)
		}
		groups[j.Pack] = append(groups[j.Pack], j)
	}
	engines := make(map[*pack.Compiled]*core.Engine, len(order))
	for _, pk := range order {
		eng, err := sh.engineFor(pk)
		if err != nil {
			for _, j := range groups[pk] {
				j.Resp <- Result{Err: err, BatchSize: len(groups[pk]), Shard: sh.id}
			}
			continue
		}
		engines[pk] = eng
	}
	var wg sync.WaitGroup
	panics := make(chan any, len(order))
	for _, pk := range order {
		eng := engines[pk]
		if eng == nil {
			continue
		}
		wg.Add(1)
		go func(pk *pack.Compiled, eng *core.Engine, group []*Job) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					panics <- rec
				}
			}()
			r.runGroup(sh, eng, group)
		}(pk, eng, groups[pk])
	}
	wg.Wait()
	select {
	case rec := <-panics:
		panic(rec)
	default:
	}
}

// engineFor returns the shard's engine clone for pk, cloning afresh when the
// shard has none for the pack or holds one from a superseded reload epoch.
// Only the batcher goroutine calls this.
func (sh *shard) engineFor(pk *pack.Compiled) (*core.Engine, error) {
	name := pk.Def.Name
	if se, ok := sh.engines[name]; ok && se.pk == pk {
		return se.eng, nil
	}
	eng, err := pk.Engine.Clone()
	if err != nil {
		return nil, err
	}
	sh.engines[name] = shardEngine{pk: pk, eng: eng}
	return eng, nil
}

// runGroup decodes one same-pack slice of a micro-batch on eng and delivers
// each job's result, counting budget/panic retirements toward the shard's
// failure score.
func (r *Router) runGroup(sh *shard, eng *core.Engine, group []*Job) {
	if r.cfg.ObserveBatch != nil {
		r.cfg.ObserveBatch(sh.id, len(group))
	}
	reqs := make([]core.BatchRequest, len(group))
	for i, j := range group {
		seed := j.Seed
		reqs[i] = core.BatchRequest{
			Prompt: j.Prompt, Ctx: j.Ctx, Seed: &seed, Decode: j.Decode,
			NoPrefixCache: j.NoPrefixCache,
		}
	}
	out, err := eng.DecodeRequests(context.Background(), reqs, r.cfg.Workers, 0, nil)
	if err != nil {
		for _, j := range group {
			j.Resp <- Result{Err: err, BatchSize: len(group), Shard: sh.id}
		}
		return
	}
	for i, j := range group {
		if out[i].Err != nil {
			var pe *core.PanicError
			if errors.Is(out[i].Err, core.ErrBudget) || errors.As(out[i].Err, &pe) {
				sh.failures.Add(1)
			}
			if r.cfg.OnLaneError != nil {
				r.cfg.OnLaneError(sh.id, out[i].Err)
			}
		}
		j.Resp <- Result{Res: out[i].Res, Err: out[i].Err, BatchSize: len(group), Shard: sh.id}
	}
}

// drainShard takes sh out of dispatch, moves its queued jobs to siblings
// (failing them with ErrOverloaded only when nowhere has room), discards its
// engine clones, and rejoins it with a clean failure score. Runs on the
// shard's own batcher goroutine, so touching sh.engines is safe.
func (r *Router) drainShard(sh *shard) {
	sh.draining.Store(true)
	moved, failed := 0, 0
	if len(r.shards) > 1 {
	redistribute:
		for {
			select {
			case j := <-sh.queue:
				sh.inflight.Add(-1)
				if _, ok := r.submitExcept(j, sh.id); ok {
					moved++
				} else {
					failed++
					j.Resp <- Result{Err: ErrOverloaded, Shard: sh.id}
				}
			default:
				break redistribute
			}
		}
	}
	sh.engines = map[string]shardEngine{}
	sh.failures.Store(0)
	sh.drains.Add(1)
	sh.draining.Store(false)
	if r.cfg.OnDrain != nil {
		r.cfg.OnDrain(sh.id, moved)
	}
	r.logf("router: shard %d drained (moved %d, refused %d) and rejoined", sh.id, moved, failed)
}
