// Domain-pack example: the routercfg pack synthesizes router route-map
// entries (ACL references, prefix lengths, actions) under structural rules —
// no shadowed prefixes, references within bounds, unused entries zeroed —
// instead of network telemetry. The pack bundles everything the engine
// needs (schema, rules, vocabulary, decode grammar, example corpus), so
// pointing LeJIT at a new domain is registering a new pack, not forking the
// decoder.
//
// The example trains the pack's tiny transformer on its example corpus,
// decodes a few route-maps, then hot-reloads a tightened rule file through
// the registry — the same swap `POST /v1/packs/reload` performs in lejitd —
// and decodes again under the new epoch.
//
// Run with:
//
//	go run ./examples/routercfg
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/pack"
)

func main() {
	// Build the routercfg pack: nil LM means "train one on the example
	// corpus" via TrainLM (lejitd -demo does exactly this at startup).
	def := pack.RouterCfgDefinition(nil)
	fmt.Printf("training the %s pack's model on %d example route-maps...\n", def.Name, len(def.Examples))
	if err := pack.TrainLM(&def, pack.TrainLMConfig{Epochs: 2, Seed: 3}); err != nil {
		log.Fatal(err)
	}

	reg := pack.NewRegistry(8 << 20)
	pk, err := pack.Compile(def)
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Register(pk); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered pack %s %s, epoch %s, %d rules\n\n", pk.Def.Name, pk.Def.Version, pk.EpochHex(), pk.Rules.Len())

	// Decode a few route-maps: the prompt pins NumAcls, the engine fills in
	// compliant ACL references, prefix lengths, and actions.
	decode := func(pk *pack.Compiled, label string) {
		for i, ex := range pack.RouterCfgExamples(3, 42) {
			seed := int64(100 + i)
			// A failure is out[0].Err; the returned error is always nil.
			out, _ := pk.Engine.DecodeRequests(context.Background(),
				[]core.BatchRequest{{Prompt: pk.Def.PromptOf(ex), Seed: &seed}}, 1, 0, nil)
			if out[0].Err != nil {
				log.Fatal(out[0].Err)
			}
			line, err := pk.FormatRecord(out[0].Res.Rec)
			if err != nil {
				log.Fatal(err)
			}
			if v, err := pk.Rules.Violations(out[0].Res.Rec); err != nil || len(v) > 0 {
				log.Fatalf("violations: %v (err %v)", v, err)
			}
			fmt.Printf("  [%s] NumAcls=%d -> %s", label, ex["NumAcls"][0], line)
		}
	}
	fmt.Println("route-maps under the shipped rules (NumAcls|RefAcl…|PrefixLen…|Action…):")
	decode(pk, pk.EpochHex()[:8])

	// Hot-reload a tightened rule file: prefix lengths must now be at least
	// /16 on active entries. The registry recompiles off the hot path and
	// swaps atomically; the old *Compiled keeps working for anyone holding
	// it, which is how in-flight requests finish on their admission epoch.
	tightened := pack.RouterCfgRules + "rule wide: forall t in 0..R-1: RefAcl[t] >= 1 -> PrefixLen[t] >= 16\n"
	pk2, err := reg.Reload(pack.RouterCfgName, tightened)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreloaded: epoch %s -> %s (generation %d), %d rules\n",
		pk.EpochHex(), pk2.EpochHex(), pk2.Generation, pk2.Rules.Len())
	fmt.Println("route-maps under the tightened rules (active prefixes >= /16):")
	decode(pk2, pk2.EpochHex()[:8])

	// The manifest format carries the same definition as flat files, which
	// is what `lejitd -pack manifest:rules` loads at startup.
	fmt.Println("\nthe equivalent pack manifest:")
	fmt.Println(strings.TrimSpace(`
pack     routercfg
version  v1
alphabet "0123456789;|\n"
scalar   NumAcls 1 6 after "|"
vector   RefAcl 4 0 6 sep ";" after "|"
vector   PrefixLen 4 0 32 sep ";" after "|"
vector   Action 4 0 1 sep ";" after "\n"
prompt   NumAcls`))
}
