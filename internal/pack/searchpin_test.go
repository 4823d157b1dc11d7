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
// both passes. The digest — the decoded bytes — may never move. The four
// counters may move when the oracle's local reasoning or the solver's search
// changes, and the reason then belongs next to the new constants:
// Stats.OracleQueries counts FeasibleAny's ranges at resolution, so it
// depends on which ranges the interval state and model patching decide
// locally, not on the oracle's answers alone; checks, fast and nodes follow
// which probes reach the solver and, through constraint order, which model
// the search meets first and which witness the fast path inherits. A change
// that alters none of that must leave all five as they are.
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

// Re-recorded when model patching became a bounded multi-move repair and
// empty prompts began taking the shared rules-only witness (DESIGN.md §6):
// fewer probes reach the solver, so checks and nodes fell (solo cold: checks
// summed 909 → 196, nodes 9 240 → 1 388; warm: 862 → 128 and 8 508 → 511),
// fast rose, and 22 of the 64 solo-cold query counts moved by −6 to +2,
// because FeasibleAny counts ranges at resolution. Both digests are unchanged.
var wantSoloCold = searchCounters{
	queries: []uint64{156, 151, 144, 153, 114, 146, 114, 147, 140, 151, 130, 150, 151, 160, 149, 146, 151, 156, 141, 153, 115, 150, 160, 155, 153, 154, 156, 105, 115, 105, 124, 145, 160, 156, 150, 153, 157, 115, 115, 144, 154, 154, 144, 112, 115, 155, 160, 142, 148, 159, 145, 152, 131, 150, 105, 155, 160, 145, 140, 160, 153, 115, 153, 147},
	checks:  []uint64{4, 3, 2, 2, 2, 3, 2, 2, 4, 5, 2, 7, 4, 2, 3, 4, 3, 4, 2, 5, 1, 3, 3, 5, 5, 4, 3, 1, 1, 1, 2, 6, 5, 3, 3, 5, 3, 1, 1, 3, 3, 3, 2, 2, 1, 3, 2, 2, 3, 3, 2, 3, 3, 2, 1, 2, 3, 1, 2, 2, 4, 1, 5, 17},
	fast:    []uint64{153, 149, 143, 152, 113, 144, 113, 146, 137, 147, 129, 144, 148, 159, 147, 143, 149, 153, 140, 149, 115, 148, 158, 151, 149, 151, 154, 105, 115, 105, 123, 140, 156, 154, 148, 149, 155, 115, 115, 142, 152, 152, 143, 111, 115, 153, 159, 141, 146, 157, 144, 150, 129, 149, 105, 154, 158, 145, 139, 159, 150, 115, 149, 131},
	nodes:   1388,
	digest:  0xfdd32f8257c418f8,
}

var wantLockStepWarm = searchCounters{
	queries: []uint64{144, 145, 145, 151, 115, 149, 115, 152, 152, 144, 123, 151, 153, 160, 151, 151, 151, 156, 144, 151, 115, 144, 160, 152, 150, 149, 157, 105, 114, 105, 117, 144, 160, 156, 155, 154, 152, 115, 115, 143, 155, 155, 154, 118, 121, 153, 160, 152, 152, 160, 153, 155, 120, 142, 105, 148, 160, 154, 157, 160, 153, 115, 155, 144},
	checks:  []uint64{2, 2, 2, 1, 0, 3, 0, 1, 3, 3, 1, 2, 3, 1, 1, 0, 2, 3, 1, 2, 0, 9, 1, 8, 2, 3, 2, 0, 0, 0, 1, 3, 5, 1, 2, 5, 4, 0, 0, 2, 4, 2, 1, 0, 0, 1, 1, 2, 5, 2, 4, 1, 1, 1, 0, 2, 2, 2, 1, 0, 4, 0, 1, 10},
	fast:    []uint64{142, 143, 143, 150, 115, 146, 115, 151, 149, 141, 122, 149, 150, 159, 150, 151, 149, 153, 143, 149, 115, 135, 159, 144, 148, 146, 155, 105, 114, 105, 116, 141, 155, 155, 153, 149, 148, 115, 115, 141, 151, 153, 153, 118, 121, 152, 159, 150, 147, 158, 149, 154, 119, 141, 105, 146, 158, 152, 156, 160, 149, 115, 154, 134},
	nodes:   511,
	digest:  0x59b560f2ab04be55,
}
