package pack

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/prefixcache"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// searchCounters are the per-record counters that describe which search the
// oracle and the solver ran, not how long it took.
type searchCounters struct {
	queries, checks, fast []uint64
	nodes                 uint64
	digest                uint64 // FNV-1a of the decoded lines: the bytes may never move
}

func (c searchCounters) String() string {
	row := func(name string, xs []uint64) string {
		return fmt.Sprintf("\t%s: []uint64{%s},\n", name, strings.Trim(strings.ReplaceAll(fmt.Sprint(xs), " ", ", "), "[]"))
	}
	return "searchCounters{\n" + row("queries", c.queries) + row("checks", c.checks) + row("fast", c.fast) +
		fmt.Sprintf("\tnodes: %d,\n\tdigest: %#x,\n}", c.nodes, c.digest)
}

// TestTelemetrySearchPinned decodes the benchmark's 64-prompt telemetry pool
// (tiny-scale corpus, mined rules, fixed seeds) alone and cold, and again in
// lock-step groups of seven on a warmed prefix cache, and pins the counters of
// both passes to constants recorded at PR 16 (8cac193). Stats.OracleQueries
// is a function of the oracle's answers alone and may never move. The other
// three may move only when a solver change alters constraint order — and
// with it which model the search meets first and which witness the fast path
// inherits; the reason then belongs next to the new constants. A solver
// optimisation that changes none of that must leave all four as they are.
func TestTelemetrySearchPinned(t *testing.T) {
	ws := dataset.Generate(dataset.Config{Racks: 12, WindowsPerRack: 30, Seed: 1})
	trainWs, _ := dataset.Split(ws, 10, 2)
	train := dataset.Records(trainWs)
	rs, err := mining.Mine(train, dataset.Schema(), mining.Config{Slack: 2, Coeffs: []int64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	def := TelemetryDefinition(testLM(t, vocab.Telemetry().Size()), rs.String(), 0.9, nil)
	const pool = 64
	prompts := make([]rules.Record, pool)
	for i := range prompts {
		prompts[i] = def.PromptOf(train[i*(len(train)/pool)])
	}

	// decode runs reqs in groups of at most group lanes, one group at a time.
	decode := func(eng *core.Engine, seed int64, group int) searchCounters {
		var c searchCounters
		h := fnv.New64a()
		for at := 0; at < pool; at += group {
			reqs := make([]core.BatchRequest, 0, group)
			for i := at; i < pool && i < at+group; i++ {
				s := core.MixSeed(seed, i)
				reqs = append(reqs, core.BatchRequest{Prompt: prompts[i], Seed: &s})
			}
			out, err := eng.DecodeRequests(context.Background(), reqs, 1, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range out {
				if r.Err != nil {
					t.Fatalf("prompt %d: %v", at+i, r.Err)
				}
				if v, err := rs.Violations(r.Res.Rec); err != nil || len(v) > 0 {
					t.Fatalf("prompt %d decoded a non-compliant record: %v %v", at+i, v, err)
				}
				io.WriteString(h, dataset.Format(r.Res.Rec))
				st := r.Res.Stats
				c.queries = append(c.queries, st.OracleQueries)
				c.checks = append(c.checks, st.SolverChecks)
				c.fast = append(c.fast, st.OracleFastPath)
			}
		}
		c.nodes, c.digest = eng.SolverStats().Nodes, h.Sum64()
		return c
	}

	solo := mustCompile(t, def).Engine
	solo.SetPrefixCache(nil)
	gotSolo := decode(solo, 100, 1)

	warm := mustCompile(t, def).Engine
	warm.SetPrefixCache(prefixcache.New(64 << 20))
	decode(warm, 200, 7) // fills the cache: every prompt below is a full hit with a witness
	before := warm.SolverStats().Nodes
	gotWarm := decode(warm, 300, 7)
	gotWarm.nodes -= before

	for _, tc := range []struct {
		name      string
		got, want searchCounters
	}{{"solo cold", gotSolo, wantSoloCold}, {"lock-step 7 warm", gotWarm, wantLockStepWarm}} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s: search counters moved; got\n%v", tc.name, tc.got)
		}
	}
}

var wantSoloCold = searchCounters{
	queries: []uint64{156, 152, 143, 153, 114, 146, 114, 147, 140, 151, 133, 151, 151, 160, 149, 152, 150, 155, 140, 152, 115, 150, 160, 156, 153, 154, 156, 105, 115, 105, 124, 144, 160, 156, 150, 153, 157, 115, 115, 144, 154, 154, 142, 115, 115, 155, 158, 141, 149, 159, 144, 151, 131, 150, 105, 154, 160, 144, 140, 160, 152, 115, 154, 147},
	checks:  []uint64{13, 15, 19, 18, 2, 20, 2, 18, 22, 11, 3, 18, 16, 18, 16, 13, 14, 21, 17, 12, 1, 16, 20, 22, 19, 23, 13, 1, 1, 1, 2, 24, 17, 14, 28, 27, 15, 1, 1, 17, 18, 17, 16, 2, 1, 12, 22, 16, 13, 23, 20, 18, 3, 16, 1, 17, 19, 18, 17, 14, 18, 1, 27, 29},
	fast:    []uint64{144, 138, 125, 136, 113, 127, 113, 130, 119, 141, 131, 134, 136, 143, 134, 140, 137, 135, 124, 141, 115, 135, 141, 135, 135, 132, 144, 105, 115, 105, 123, 121, 144, 143, 123, 127, 143, 115, 115, 128, 137, 138, 127, 114, 115, 144, 137, 126, 137, 137, 125, 134, 129, 135, 105, 138, 142, 127, 124, 147, 135, 115, 128, 119},
	nodes:   9240,
	digest:  0xfdd32f8257c418f8,
}

var wantLockStepWarm = searchCounters{
	queries: []uint64{143, 148, 145, 151, 115, 149, 115, 152, 152, 151, 123, 151, 152, 160, 152, 151, 151, 155, 150, 151, 115, 142, 160, 150, 150, 148, 157, 105, 124, 105, 125, 143, 160, 156, 155, 154, 153, 115, 115, 142, 155, 155, 154, 118, 121, 153, 158, 152, 151, 160, 153, 154, 124, 141, 105, 149, 160, 154, 157, 160, 154, 115, 155, 146},
	checks:  []uint64{23, 16, 16, 19, 0, 15, 0, 11, 21, 10, 1, 17, 17, 28, 17, 14, 19, 19, 13, 10, 0, 21, 24, 23, 19, 24, 16, 0, 4, 0, 2, 22, 22, 10, 22, 22, 20, 0, 0, 18, 18, 18, 17, 0, 0, 18, 22, 17, 16, 13, 19, 12, 1, 18, 0, 14, 14, 13, 18, 3, 25, 0, 13, 18},
	fast:    []uint64{120, 132, 129, 132, 115, 134, 115, 141, 131, 141, 122, 134, 135, 132, 135, 137, 132, 136, 137, 141, 115, 121, 136, 127, 131, 124, 141, 105, 120, 105, 123, 121, 138, 146, 133, 132, 133, 115, 115, 124, 137, 137, 137, 118, 121, 135, 136, 135, 135, 147, 134, 142, 123, 123, 105, 135, 146, 141, 139, 157, 129, 115, 142, 128},
	nodes:   8508,
	digest:  0x59b560f2ab04be55,
}
