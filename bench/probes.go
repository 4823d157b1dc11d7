package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/prefixcache"
	"repro/internal/router"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/smt"
	"repro/internal/transition"
	"repro/internal/vocab"
)

// probePass is how many records the decode probes push through the engine.
const probePass = 64

// timePer runs fn reps times and returns the mean duration of one run.
func timePer(reps int, fn func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(t0) / time.Duration(reps)
}

// layerProbes measures each layer from outside, around its public functions,
// on the run's own prompt pool. Each probe is a span in the trace. out gets
// one entry per metric; a probe that cannot run reports an error, which
// fails the run rather than publishing a hole.
func (e *env) layerProbes(tr *tracer, out map[string]float64) error {
	var perr error
	probe := func(name string, fn func() error) {
		if perr != nil {
			return
		}
		tr.probe(name, func() {
			if err := fn(); err != nil {
				perr = fmt.Errorf("probe %s: %w", name, err)
			}
		})
	}
	prompts := e.telemetryPrompts()
	imputeRules, err := rules.ParseRuleSet(e.imputeText, e.schema)
	if err != nil {
		return err
	}

	probe("rules", func() error {
		out["rules.parse_ms"] = ms(timePer(5, func() { _, err = rules.ParseRuleSet(e.imputeText, e.schema) }))
		if err != nil {
			return err
		}
		recs := e.train[:probePass]
		out["rules.violations_us_per_record"] = us(timePer(4, func() {
			for _, r := range recs {
				_, err = imputeRules.Violations(r)
			}
		})) / float64(len(recs))
		return err
	})

	probe("smt", func() error {
		s := smt.NewSolver()
		b := rules.Instantiate(s, e.schema)
		f, err := imputeRules.CompileAll(b)
		if err != nil {
			return err
		}
		s.Assert(f)
		var total time.Duration
		const checks = 50
		for _, p := range prompts[:16] {
			s.Push()
			for field, vals := range p {
				vars, _ := b.Vars(field)
				for i, v := range vals {
					s.Assert(smt.Eq(smt.V(vars[i]), smt.C(v)))
				}
			}
			if r := s.Check(); r.Status != smt.Sat { // builds the propagation base
				return fmt.Errorf("prompt not satisfiable: %v", r.Status)
			}
			total += timePer(checks, func() { s.Check() })
			s.Pop()
		}
		out["smt.check_us"] = us(total / 16)
		return nil
	})

	probe("transition", func() error {
		sys := transition.New(3, transition.IntervalSetOracle([][2]int64{{5, 17}, {40, 200}}))
		states := []transition.State{sys.Start()}
		for _, c := range []byte("14") {
			st, err := sys.Step(states[len(states)-1], c)
			if err != nil {
				return err
			}
			states = append(states, st)
		}
		out["transition.admissible_us"] = us(timePer(20000, func() {
			for _, st := range states {
				sys.Admissible(st)
			}
		})) / float64(len(states))
		return nil
	})

	probe("nn", func() error {
		toks, err := e.tele.Tok.EncodeSeq(dataset.Format(e.train[0]))
		if err != nil {
			return err
		}
		toks = toks[:min(len(toks)-1, 40)] // BOS + record text, no EOS
		var sess *nn.Session
		out["nn.append_us_per_token"] = us(timePer(20, func() {
			sess = e.model.NewSession()
			for _, t := range toks {
				err = sess.Append(t)
			}
		})) / float64(len(toks))
		if err != nil {
			return err
		}
		out["nn.session_clone_us"] = us(timePer(2000, func() { sess.Clone().Release() }))

		lanes, step := make([]int, synthLanes), make([]int, synthLanes)
		for i := range lanes {
			lanes[i] = i
		}
		out["nn.appendbatch_us_per_lane_token_b32"] = us(timePer(5, func() {
			bs := e.model.NewBatchSession(synthLanes)
			for _, t := range toks {
				for i := range step {
					step[i] = t
				}
				if aerr := bs.AppendBatch(lanes, step); aerr != nil {
					err = aerr
				}
			}
		})) / float64(len(toks)*synthLanes)
		return err
	})

	probe("core.solo", func() error {
		// Warm pass first so the timed one sees the steady-state cache.
		if _, _, _, err := e.soloPass(probePass, e.seed+7, func(c context.Context) context.Context { return c }); err != nil {
			return err
		}
		st, d, eng, err := e.soloPass(probePass, e.seed+7, func(c context.Context) context.Context { return c })
		if err != nil {
			return err
		}
		out["core.impute_ms_per_record"] = ms(d) / probePass
		ss := eng.SolverStats()
		out["smt.checks_per_token"] = share(float64(ss.Checks), float64(st.Tokens))
		out["smt.warm_start_share"] = share(float64(ss.WarmStarts), float64(ss.Checks))
		out["core.oracle_fastpath_share"] = share(float64(st.OracleFastPath), float64(st.OracleQueries))
		out["core.forced_step_share"] = share(float64(st.ForcedSteps), float64(st.Tokens))
		out["core.masked_step_share"] = share(float64(st.MaskedSteps), float64(st.Tokens))
		out["core.tokens_per_record"] = float64(st.Tokens) / probePass

		_, d, _, err = e.soloPass(probePass, e.seed+7, core.DisablePrefixCache)
		if err != nil {
			return err
		}
		out["core.impute_cold_ms_per_record"] = ms(d) / probePass

		st, d, _, err = e.soloPass(probePass, e.seed+7, func(c context.Context) context.Context { return core.WithLookahead(c, 8) })
		if err != nil {
			return err
		}
		out["core.spec_k8_ms_per_record"] = ms(d) / probePass
		out["core.spec_accept_share"] = share(float64(st.SpecAcceptedTokens), float64(st.Tokens))

		out["core.engine_clone_us"] = us(timePer(20, func() { _, err = e.tele.Engine.Clone() }))
		return err
	})

	probe("core.batch", func() error {
		eng, err := e.tele.Engine.Clone()
		if err != nil {
			return err
		}
		decode := func(n int, prompted bool, reps int) (time.Duration, error) {
			var ferr error
			d := timePer(reps, func() {
				reqs := make([]core.BatchRequest, n)
				for i := range reqs {
					seed := core.MixSeed(e.seed+11, i)
					reqs[i].Seed = &seed
					if prompted {
						reqs[i].Prompt = prompts[i%len(prompts)]
					}
				}
				res, err := eng.DecodeRequests(context.Background(), reqs, e.nproc, 0, nil)
				if err != nil {
					ferr = err
				}
				for _, r := range res {
					if r.Err != nil {
						ferr = r.Err
					}
				}
			})
			return d, ferr
		}
		d, err := decode(1, false, synthLanes)
		if err != nil {
			return err
		}
		out["core.generate_ms_per_record_b1"] = ms(d)
		if d, err = decode(synthLanes, false, 3); err != nil {
			return err
		}
		out["core.generate_ms_per_record_b32"] = ms(d) / synthLanes
		if d, err = decode(synthLanes, true, 3); err != nil {
			return err
		}
		out["core.lockstep_impute_ms_per_record_b32"] = ms(d) / synthLanes
		return nil
	})

	probe("prefixcache", func() error {
		cache := prefixcache.New(prefixCacheBytes)
		keys := make([][]int, 0, promptPool)
		for _, rec := range e.train[:promptPool] {
			toks, err := e.tele.Tok.Encode(dataset.Prompt(rec))
			if err != nil {
				return err
			}
			keys = append(keys, append([]int{vocab.BOS}, toks...))
		}
		snaps := make([]*prefixcache.Snapshot, len(keys))
		for i, k := range keys {
			sess := e.model.NewSession()
			for _, t := range k {
				if err := sess.Append(t); err != nil {
					return err
				}
			}
			snaps[i] = &prefixcache.Snapshot{Sess: sess, RuleEpoch: 1, Slots: len(dataset.CoarseFields())}
		}
		t0 := time.Now()
		for i, k := range keys {
			cache.Insert(k, snaps[i])
		}
		out["prefixcache.insert_us"] = us(time.Since(t0)) / float64(len(keys))
		out["prefixcache.lookup_us"] = us(timePer(20, func() {
			for _, k := range keys {
				if h := cache.Lookup(k, 1); h != nil {
					h.Sess.Release()
				}
			}
		})) / float64(len(keys))
		return nil
	})

	probe("server", func() error {
		var body []byte
		if len(e.reqs) > 0 {
			body = e.reqs[0].body
		} else {
			body = []byte(`{"known":{"TotalIngress":[100]},"seed":1}`)
		}
		var err error
		out["server.parse_request_us"] = us(timePer(2000, func() {
			_, err = server.ParseDecodeRequest(bytes.NewReader(body), nil, true)
		}))
		out["router.submit_to_result_idle_ms"] = 0
		if err != nil || e.srv == nil { // offline-synth has no router
			return err
		}
		// One job into an idle router: batch window plus a solo decode.
		var total time.Duration
		const jobs = 20
		for i := 0; i < jobs; i++ {
			j := &router.Job{Ctx: context.Background(), Prompt: prompts[i%len(prompts)], Pack: e.tele,
				Seed: core.MixSeed(e.seed+13, i), Start: time.Now(), Resp: make(chan router.Result, 1)}
			t0 := time.Now()
			if _, ok := e.srv.Router().Submit(j); !ok {
				return fmt.Errorf("idle router refused a job")
			}
			if r := <-j.Resp; r.Err != nil {
				return r.Err
			}
			total += time.Since(t0)
		}
		out["router.submit_to_result_idle_ms"] = ms(total / jobs)
		return nil
	})

	return perr
}
