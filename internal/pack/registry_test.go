package pack

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

func newTestRegistry(t *testing.T, cacheBytes int64, defs ...Definition) *Registry {
	t.Helper()
	r := NewRegistry(cacheBytes)
	for _, def := range defs {
		if err := r.Register(mustCompile(t, def)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRegistryRegisterGetList(t *testing.T) {
	r := newTestRegistry(t, 0, RouterCfgDefinition(nil), FinComplianceDefinition(nil))
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if got := r.Names(); !(len(got) == 2 && got[0] == FinComplianceName && got[1] == RouterCfgName) {
		t.Fatalf("Names = %v, want sorted [fincompliance routercfg]", got)
	}
	pk, ok := r.Get(RouterCfgName)
	if !ok || pk.Def.Name != RouterCfgName {
		t.Fatalf("Get(routercfg) = %v, %v", pk, ok)
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("Get(nope) succeeded")
	}
	if err := r.Register(mustCompile(t, RouterCfgDefinition(nil))); err == nil {
		t.Fatal("duplicate Register accepted")
	}
	for _, info := range r.List() {
		if info.Generation != 1 || info.Epoch == 0 || info.Fields == 0 || info.Rules == 0 {
			t.Fatalf("bad Info: %+v", info)
		}
	}
}

func TestRegistryReload(t *testing.T) {
	r := newTestRegistry(t, 0, FinComplianceDefinition(nil))
	before, _ := r.Get(FinComplianceName)

	// Unknown pack.
	var unknown ErrUnknownPack
	if _, err := r.Reload("nope", ""); !errors.As(err, &unknown) {
		t.Fatalf("Reload(nope) = %v, want ErrUnknownPack", err)
	}

	// Bad rule text: error, current bundle keeps serving, error counter bumps.
	if _, err := r.Reload(FinComplianceName, "rule x: Nope >= 1"); err == nil {
		t.Fatal("Reload with bad rules succeeded")
	}
	if _, err := r.Reload(FinComplianceName, "rule a: RiskScore >= 3\nrule b: RiskScore <= 2"); err == nil ||
		!strings.Contains(err.Error(), "unsat") {
		t.Fatalf("Reload with unsat rules: %v, want unsat error", err)
	}
	cur, _ := r.Get(FinComplianceName)
	if cur != before {
		t.Fatal("failed reload replaced the serving bundle")
	}
	st := r.Stats()[FinComplianceName]
	if st.Reloads != 0 || st.ReloadErrors != 2 {
		t.Fatalf("stats after failed reloads: %+v", st)
	}

	// Good reload: new epoch, generation bump, new rules enforced.
	tightened := strings.ReplaceAll(FinComplianceRules, "CATMAX = 80", "CATMAX = 75")
	if _, err := r.Reload(FinComplianceName, tightened); err != nil {
		t.Fatal(err)
	}
	cur, _ = r.Get(FinComplianceName)
	if cur == before || cur.Epoch == before.Epoch || cur.Generation != 2 {
		t.Fatalf("reload did not swap: gen=%d epoch %016x vs %016x", cur.Generation, cur.Epoch, before.Epoch)
	}
	if !strings.Contains(cur.Rules.String(), "75") {
		t.Fatalf("reloaded rules = %q, want CATMAX 75", cur.Rules.String())
	}
	// The pre-reload bundle is untouched — in-flight requests finish on it.
	if before.Generation != 1 || !strings.Contains(before.Rules.String(), "80") {
		t.Fatal("reload mutated the old bundle")
	}
	// Decode on the reloaded engine obeys the tightened rules.
	res, err := cur.Engine.DecodeRequests(context.Background(),
		[]core.BatchRequest{{Prompt: cur.Def.PromptOf(FinComplianceExamples(1, 99)[0])}}, 1, 5, nil)
	if err != nil || res[0].Err != nil {
		t.Fatalf("decode after reload: %v %v", err, res[0].Err)
	}
	for _, v := range res[0].Res.Rec["Exposure"] {
		if v > 75 {
			t.Fatalf("post-reload decode has Exposure %d > 75", v)
		}
	}

	// Reloading identical text still swaps (same epoch, generation bumps).
	prev := cur
	if _, err := r.Reload(FinComplianceName, tightened); err != nil {
		t.Fatal(err)
	}
	cur, _ = r.Get(FinComplianceName)
	if cur.Epoch != prev.Epoch || cur.Generation != 3 {
		t.Fatalf("identical-text reload: gen=%d, epoch changed=%v", cur.Generation, cur.Epoch != prev.Epoch)
	}
}

func TestRegistryReloadPreservesBudgets(t *testing.T) {
	r := newTestRegistry(t, 1<<20, RouterCfgDefinition(nil))
	pk, _ := r.Get(RouterCfgName)
	pk.Engine.SetSolverBudget(12345, 0)
	if _, err := r.Reload(RouterCfgName, RouterCfgRules); err != nil {
		t.Fatal(err)
	}
	cur, _ := r.Get(RouterCfgName)
	if got := cur.Engine.Configuration().MaxNodes; got != 12345 {
		t.Fatalf("MaxNodes after reload = %d, want 12345", got)
	}
	if cur.Engine.Configuration().PrefixCache == nil {
		t.Fatal("reload dropped the per-pack prefix cache")
	}
	if cur.Engine.Configuration().PrefixCache != pk.Engine.Configuration().PrefixCache {
		t.Fatal("reload created a new prefix cache instead of sharing the pack's")
	}
}

func TestRegistryConcurrentGetAndReload(t *testing.T) {
	r := newTestRegistry(t, 0, RouterCfgDefinition(nil))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pk, ok := r.Get(RouterCfgName)
				if !ok || pk.Engine == nil || pk.Rules == nil {
					t.Error("torn read")
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := r.Reload(RouterCfgName, RouterCfgRules); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if st := r.Stats()[RouterCfgName]; st.Reloads != 20 {
		t.Fatalf("Reloads = %d, want 20", st.Reloads)
	}
}

func TestRegistryRuleSourceCap(t *testing.T) {
	r := newTestRegistry(t, 0, RouterCfgDefinition(nil))
	big := strings.Repeat("# padding\n", maxRuleSourceBytes/10+1)
	if _, err := r.Reload(RouterCfgName, big); err == nil {
		t.Fatal("oversized rule source accepted")
	}
}
