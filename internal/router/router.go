// Package router is the daemon's micro-batcher: one bounded admission queue
// and one supervised batcher goroutine. The batcher holds queue state only:
// each same-pack group of a micro-batch decodes on the pack's own compiled
// engine (pack.Compiled.Engine), whose clone pool serves its lanes.
//
// Parallelism lives below the batcher: each micro-batch goes to
// core.DecodeRequests, which cuts its lanes into at most Workers lock-step
// groups on pooled clones (DESIGN.md §16). Output is a function of
// (prompt, seed) only, never of batching or timing.
package router

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/rules"
)

// Job is one admitted decode request. The pack is pinned at admission time: a
// hot reload never retargets a queued job, it decodes on the epoch it was
// admitted under.
type Job struct {
	Ctx    context.Context
	Prompt rules.Record // nil → unconditional generation
	Pack   *pack.Compiled
	Seed   int64
	Method core.Method // the zero value is the guided decoder
	// Start is the admission stamp: the batch window of the batch this job
	// opens runs from it. Submit stamps it when the caller left it zero.
	Start time.Time
	// Resp must be buffered (cap ≥ 1): the batcher never blocks delivering to
	// a caller that already gave up on its deadline.
	Resp chan Result
}

// Result is one job's outcome.
type Result struct {
	Res       core.Result
	Err       error
	BatchSize int
}

// Config assembles a Router. New takes the values as given; the serving
// defaults live in internal/server.
type Config struct {
	// BatchWindow is the coalescing window, timed from the admission
	// (Job.Start) of the batch's first job: a job that already waited that
	// long in the queue dispatches at once, with whatever is queued behind
	// it.
	BatchWindow time.Duration
	// MaxBatch caps records per micro-batch.
	MaxBatch int
	// QueueDepth bounds the admission queue.
	QueueDepth int
	// Workers is the decode pool size per micro-batch (< 1: GOMAXPROCS).
	Workers int
	// Logf receives router log lines. May be nil.
	Logf func(format string, args ...any)

	// ObserveBatch, OnLaneError and OnRestart are metrics hooks; any may be
	// nil. ObserveBatch fires once per same-pack group a batch decodes,
	// OnLaneError once per failed record with the record's error.
	ObserveBatch func(size int)
	OnLaneError  func(err error)
	OnRestart    func()
}

// Stats is the router's live dispatch state.
type Stats struct {
	Queued   int
	Inflight int    // includes Queued
	Batches  uint64 // settled micro-batches
	// BatchSeconds is the summed wall time of the settled batches, from
	// dispatch to the last result; over Batches it is the mean batch cost.
	BatchSeconds float64
}

// Router is a bounded queue in front of one micro-batcher.
type Router struct {
	cfg   Config
	queue chan *Job

	// inflight counts admitted-but-unfinished jobs: incremented at Submit,
	// decremented when the job's batch settles. Unlike len(queue) it still
	// sees a full batch that has been dequeued but is mid-decode.
	inflight atomic.Int64
	batches  atomic.Uint64 // settled batches
	batchNs  atomic.Int64  // their summed wall time, dispatch to settle

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// New builds a Router and starts its batcher goroutine. Callers must Close
// it.
func New(cfg Config) *Router {
	r := &Router{
		cfg:   cfg,
		queue: make(chan *Job, cfg.QueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go r.batcher()
	return r
}

// Close stops the batcher. Jobs still queued are abandoned (their contexts
// expire); call only once callers are drained.
func (r *Router) Close() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

// Load returns the jobs waiting in the queue and the admitted-but-unfinished
// count (which includes the queued ones).
func (r *Router) Load() (queued, inflight int) {
	return len(r.queue), int(r.inflight.Load())
}

// Stats snapshots the dispatch state.
func (r *Router) Stats() Stats {
	return Stats{
		Queued:       len(r.queue),
		Inflight:     int(r.inflight.Load()),
		Batches:      r.batches.Load(),
		BatchSeconds: time.Duration(r.batchNs.Load()).Seconds(),
	}
}

// Submit enqueues j. ok is false when the queue is full (the caller should
// answer 429): admission never blocks. A zero j.Start is stamped now. The
// int result is always 0. It stays only so the repository benchmark's
// router.submit_to_result_idle_ms probe compiles, and is due to go with the
// benchmark's next change, like core.WithLookahead.
func (r *Router) Submit(j *Job) (int, bool) {
	if j.Start.IsZero() {
		j.Start = time.Now()
	}
	r.inflight.Add(1)
	select {
	case r.queue <- j:
		return 0, true
	default:
		r.inflight.Add(-1)
		return 0, false
	}
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// batcher supervises the queue consumer: a panic that escapes a batch
// restarts the loop. The restart has nothing to discard: the batcher holds no
// engines, and DecodeRequests never pools a clone or session a panic unwound
// through.
func (r *Router) batcher() {
	defer close(r.done)
	for !r.batcherLoop() {
		if r.cfg.OnRestart != nil {
			r.cfg.OnRestart()
		}
		r.logf("router: batcher restarted after panic")
	}
}

// batcherLoop consumes the queue: it takes the first job and everything
// already queued behind it, then keeps the window open until BatchWindow
// after the first job's admission (or until MaxBatch), then the batch
// dispatches. Under load the first job has spent much or all of its window
// in the queue during the previous batch's decode, so the batch waits only
// for the rest, if any; a lone job on an idle batcher waits the whole window.
// Returns true on clean stop; a recovered panic returns false for the
// supervisor.
func (r *Router) batcherLoop() (stopped bool) {
	defer func() {
		if rec := recover(); rec != nil {
			r.logf("router: batcher panicked: %v", rec)
		}
	}()
	for {
		var first *Job
		select {
		case first = <-r.queue:
		case <-r.stop:
			return true
		}
		batch := append(make([]*Job, 0, r.cfg.MaxBatch), first)
		// Queued jobs first, without blocking: an expired window must not
		// win a select against a job that is already waiting.
	queued:
		for len(batch) < r.cfg.MaxBatch {
			select {
			case j := <-r.queue:
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
				case j := <-r.queue:
					batch = append(batch, j)
				case <-timer.C:
					break collect
				}
			}
			timer.Stop()
		}
		r.runBatch(batch)
	}
}

// runBatch splits one micro-batch by compiled pack and decodes the groups
// concurrently, each on its pack's engine. A panic escaping a group is
// re-raised here so the supervisor's restart semantics hold; the deferred
// inflight settle still runs.
func (r *Router) runBatch(batch []*Job) {
	defer r.inflight.Add(-int64(len(batch)))
	defer func(t0 time.Time) {
		r.batchNs.Add(int64(time.Since(t0)))
		r.batches.Add(1)
	}(time.Now())
	order := make([]*pack.Compiled, 0, 1)
	groups := make(map[*pack.Compiled][]*Job, 1)
	for _, j := range batch {
		if _, ok := groups[j.Pack]; !ok {
			order = append(order, j.Pack)
		}
		groups[j.Pack] = append(groups[j.Pack], j)
	}
	var wg sync.WaitGroup
	panics := make(chan any, len(order))
	for _, pk := range order {
		wg.Add(1)
		go func(eng *core.Engine, group []*Job) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					panics <- rec
				}
			}()
			r.runGroup(eng, group)
		}(pk.Engine, groups[pk])
	}
	wg.Wait()
	select {
	case rec := <-panics:
		panic(rec)
	default:
	}
}

// runGroup decodes one same-pack slice of a micro-batch on eng and delivers
// each job's result.
func (r *Router) runGroup(eng *core.Engine, group []*Job) {
	if r.cfg.ObserveBatch != nil {
		r.cfg.ObserveBatch(len(group))
	}
	reqs := make([]core.BatchRequest, len(group))
	for i, j := range group {
		seed := j.Seed
		reqs[i] = core.BatchRequest{Prompt: j.Prompt, Ctx: j.Ctx, Seed: &seed, Method: j.Method}
	}
	// Failures are per job, in out[i].Err; the returned error is always nil.
	out, _ := eng.DecodeRequests(context.Background(), reqs, r.cfg.Workers, 0, nil)
	for i, j := range group {
		if out[i].Err != nil && r.cfg.OnLaneError != nil {
			r.cfg.OnLaneError(out[i].Err)
		}
		j.Resp <- Result{Res: out[i].Res, Err: out[i].Err, BatchSize: len(group)}
	}
}
