package router

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// --- Fixtures (mirror the server package's LM mocks) -------------------------

type uniformLM struct{ vocab int }

func (u uniformLM) VocabSize() int { return u.vocab }
func (u uniformLM) NewSession() core.Session {
	return &uniformSession{logits: make([]float32, u.vocab)}
}

type uniformSession struct{ logits []float32 }

func (s *uniformSession) Append(tok int) error { return nil }
func (s *uniformSession) Logits() []float32    { return s.logits }

// gateLM blocks every decode on a shared gate channel until it is closed.
type gateLM struct {
	vocab int
	gate  <-chan struct{}
}

func (g gateLM) VocabSize() int { return g.vocab }
func (g gateLM) NewSession() core.Session {
	return &gateSession{gate: g.gate, logits: make([]float32, g.vocab)}
}

type gateSession struct {
	gate   <-chan struct{}
	logits []float32
}

func (s *gateSession) Append(tok int) error { return nil }
func (s *gateSession) Logits() []float32    { <-s.gate; return s.logits }

const testRulesText = `
const BW = 60
const T  = 5
rule r1: forall t in 0..T-1: 0 <= I[t] and I[t] <= BW
rule r2: sum(I) == TotalIngress
rule r3: Congestion > 0 -> max(I) >= BW/2
`

func testPack(t *testing.T, lm core.LM, hook func(core.FaultSite) error) *pack.Compiled {
	t.Helper()
	schema := rules.MustSchema(
		rules.Field{Name: "TotalIngress", Kind: rules.Scalar, Lo: 0, Hi: 300},
		rules.Field{Name: "Congestion", Kind: rules.Scalar, Lo: 0, Hi: 100},
		rules.Field{Name: "I", Kind: rules.Vector, Len: 5, Lo: 0, Hi: 60},
	)
	rs, err := rules.ParseRuleSet(testRulesText, schema)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := core.TelemetryGrammar(schema, []string{"TotalIngress", "Congestion"}, "I")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.Config{
		LM: lm, Tok: vocab.Telemetry(), Schema: schema,
		Rules: rs, Slots: slots, Mode: core.LeJIT, FaultHook: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	pk, err := pack.FromEngine("default", eng, rs, schema)
	if err != nil {
		t.Fatal(err)
	}
	return pk
}

func newJob(pk *pack.Compiled, ingress int64, seed int64) *Job {
	return &Job{
		Ctx:    context.Background(),
		Prompt: rules.Record{"TotalIngress": {ingress}, "Congestion": {0}},
		Pack:   pk,
		Seed:   seed,
		Start:  time.Now(),
		Resp:   make(chan Result, 1),
	}
}

// TestSubmitRejectsWhenFull: once the batcher holds a decoding batch and the
// queue is full, Submit refuses instead of blocking.
func TestSubmitRejectsWhenFull(t *testing.T) {
	gate := make(chan struct{})
	pk := testPack(t, gateLM{vocab: vocab.Telemetry().Size(), gate: gate}, nil)
	dispatched := make(chan int, 2) // one per batch: the hook must not block the batcher
	r := New(Config{
		BatchWindow: time.Millisecond, MaxBatch: 1, QueueDepth: 1, Workers: 1,
		ObserveBatch: func(size int) { dispatched <- size },
	})
	defer r.Close()
	defer close(gate) // LIFO: unblock the gated decode before Close waits on the batcher

	// One job occupies the batcher (held on the gate)...
	if _, ok := r.Submit(newJob(pk, 100, 0)); !ok {
		t.Fatal("job 0 refused")
	}
	select {
	case <-dispatched:
	case <-time.After(5 * time.Second):
		t.Fatal("the batcher never picked up the gating job")
	}
	// ...one more fills the depth-1 queue...
	if _, ok := r.Submit(newJob(pk, 100, 1)); !ok {
		t.Fatal("job 1 refused with queue room left")
	}
	// ...and the third must bounce.
	if _, ok := r.Submit(newJob(pk, 100, 2)); ok {
		t.Fatal("job admitted past full capacity")
	}
	if q, inflight := r.Load(); q != 1 || inflight != 2 {
		t.Errorf("full router reports queued=%d inflight=%d, want 1 and 2", q, inflight)
	}
}

// windowTestWindow is the batch window of the window tests: wide, so that
// scheduling noise under -race stays far inside every margin.
const windowTestWindow = 200 * time.Millisecond

// dispatchClock is an ObserveBatch hook that records each batch's size and
// dispatch time.
type dispatchClock chan struct {
	size int
	at   time.Time
}

func (c dispatchClock) observe(size int) {
	c <- struct {
		size int
		at   time.Time
	}{size, time.Now()}
}

func (c dispatchClock) next(t *testing.T) (size int, at time.Time) {
	t.Helper()
	select {
	case d := <-c:
		return d.size, d.at
	case <-time.After(10 * time.Second):
		t.Fatal("no batch dispatched")
	}
	return 0, time.Time{}
}

// TestBatchWindowFromAdmission: a batch's window runs from its first job's
// admission, not from when the batcher dequeued it. A job that waited longer
// than the window in the queue (behind a gated batch) dispatches as soon as
// the batcher is free, together with every job queued behind it.
func TestBatchWindowFromAdmission(t *testing.T) {
	gate := make(chan struct{})
	pk := testPack(t, gateLM{vocab: vocab.Telemetry().Size(), gate: gate}, nil)
	clock := make(dispatchClock, 2) // one per batch: the hook must not block the batcher
	r := New(Config{BatchWindow: windowTestWindow, MaxBatch: 32, QueueDepth: 32, Workers: 1, ObserveBatch: clock.observe})
	defer r.Close()
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	defer open() // LIFO: unblock a gated decode before Close waits on the batcher

	held := newJob(pk, 100, 1)
	if _, ok := r.Submit(held); !ok {
		t.Fatal("gating job refused")
	}
	clock.next(t) // the batcher is now blocked on the gate
	jobs := []*Job{newJob(pk, 110, 2), newJob(pk, 120, 3), newJob(pk, 130, 4)}
	jobs[0].Start = time.Now().Add(-2 * windowTestWindow)
	for i, j := range jobs {
		if _, ok := r.Submit(j); !ok {
			t.Fatalf("job %d refused", i)
		}
	}
	open()
	if res := <-held.Resp; res.Err != nil {
		t.Fatal(res.Err)
	}
	settled := time.Now()
	size, at := clock.next(t)
	if size != len(jobs) {
		t.Errorf("the stale job dispatched in a batch of %d, want all %d queued jobs", size, len(jobs))
	}
	if wait := at.Sub(settled); wait > windowTestWindow/2 {
		t.Errorf("the stale job dispatched %v after the batcher freed up; its window had expired in the queue", wait)
	}
	for i, j := range jobs {
		if res := <-j.Resp; res.Err != nil || res.BatchSize != len(jobs) {
			t.Errorf("job %d: batch size %d, err %v", i, res.BatchSize, res.Err)
		}
	}
}

// TestBatchWindowIdleWaitsFullWindow: a fresh job on an idle batcher still
// waits one whole window for company before it dispatches.
func TestBatchWindowIdleWaitsFullWindow(t *testing.T) {
	pk := testPack(t, uniformLM{vocab: vocab.Telemetry().Size()}, nil)
	clock := make(dispatchClock, 1)
	r := New(Config{BatchWindow: windowTestWindow, MaxBatch: 32, QueueDepth: 32, Workers: 1, ObserveBatch: clock.observe})
	defer r.Close()

	j := newJob(pk, 100, 1)
	if _, ok := r.Submit(j); !ok {
		t.Fatal("job refused")
	}
	_, at := clock.next(t)
	if wait := at.Sub(j.Start); wait < windowTestWindow || wait > 3*windowTestWindow {
		t.Errorf("a lone job dispatched %v after admission, want about one window (%v)", wait, windowTestWindow)
	}
	if res := <-j.Resp; res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestBatchWindowBoundsClosedLoop: when every job is admitted after the
// previous dispatch, consecutive dispatches are at least one window apart.
// So a closed-loop client — next request only after the last answer — gets
// at most one request per window: the per-client rate the mixed-reload
// benchmark sizes its prompt pool from.
func TestBatchWindowBoundsClosedLoop(t *testing.T) {
	pk := testPack(t, uniformLM{vocab: vocab.Telemetry().Size()}, nil)
	clock := make(dispatchClock, 4) // one per batch: the hook must not block the batcher
	r := New(Config{BatchWindow: windowTestWindow, MaxBatch: 32, QueueDepth: 32, Workers: 1, ObserveBatch: clock.observe})
	defer r.Close()

	var prev time.Time
	for i := 0; i < 4; i++ {
		j := newJob(pk, 100+int64(i), int64(i))
		if _, ok := r.Submit(j); !ok {
			t.Fatalf("job %d refused", i)
		}
		if res := <-j.Resp; res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		_, at := clock.next(t)
		if i > 0 && at.Sub(prev) < windowTestWindow {
			t.Errorf("dispatches %d and %d are %v apart, under the %v window", i-1, i, at.Sub(prev), windowTestWindow)
		}
		prev = at
	}
	r.Close() // waits for the last batch to settle
	if st := r.Stats(); st.Batches != 4 || st.BatchSeconds <= 0 || st.Queued != 0 || st.Inflight != 0 {
		t.Errorf("router stats after 4 settled batches: %+v", st)
	}
}
