package pack

import (
	"strings"
	"testing"
)

const routerManifest = `# routercfg, as a manifest
pack    routercfg
version v2
alphabet "0123456789;|\n"
scalar  NumAcls 1 6 after "|"
vector  RefAcl 4 0 6 sep ";" after "|"
vector  PrefixLen 4 0 32 sep ";" after "|"
vector  Action 4 0 1 sep ";" after "\n"
prompt  NumAcls
`

func TestParseManifestRoundTrip(t *testing.T) {
	def, err := ParseManifest(routerManifest)
	if err != nil {
		t.Fatal(err)
	}
	builtin := RouterCfgDefinition(nil)
	if def.Name != builtin.Name || def.Version != "v2" || def.Alphabet != builtin.Alphabet {
		t.Fatalf("identity mismatch: %q %q %q", def.Name, def.Version, def.Alphabet)
	}
	slots, err := def.Slots()
	if err != nil {
		t.Fatal(err)
	}
	builtinSlots, err := builtin.Slots()
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != len(builtinSlots) {
		t.Fatalf("slot count %d != %d", len(slots), len(builtinSlots))
	}
	for i := range slots {
		if slots[i] != builtinSlots[i] {
			t.Fatalf("slot %d: %+v != %+v", i, slots[i], builtinSlots[i])
		}
	}
}

func TestLoadManifestPlusRules(t *testing.T) {
	pk, err := Load(routerManifest, RouterCfgRules, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pk.Def.Name != RouterCfgName || pk.Rules == nil || len(pk.Rules.Rules) == 0 {
		t.Fatalf("loaded pack incomplete: %+v", pk.Def)
	}
}

func TestParseManifestErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ""},
		{"no pack", "alphabet \"01\"\nscalar X 0 9"},
		{"no alphabet", "pack p\nscalar X 0 9"},
		{"no fields", "pack p\nalphabet \"01\""},
		{"unknown directive", "pack p\nwat"},
		{"bad alphabet quote", "pack p\nalphabet 01"},
		{"alphabet too long", "pack p\nalphabet \"" + strings.Repeat("a", 65) + "\""},
		{"dup field", "pack p\nalphabet \"0123456789,\\n\"\nscalar X 0 9\nscalar X 0 9"},
		{"bad number", "pack p\nalphabet \"0123456789,\\n\"\nscalar X zero 9"},
		{"negative lo", "pack p\nalphabet \"0123456789,\\n\"\nscalar X -1 9"},
		{"hi below lo", "pack p\nalphabet \"0123456789,\\n\"\nscalar X 9 1"},
		{"hi too big", "pack p\nalphabet \"0123456789,\\n\"\nscalar X 0 2000000"},
		{"vector len zero", "pack p\nalphabet \"0123456789,\\n\"\nvector X 0 0 9"},
		{"vector too long", "pack p\nalphabet \"0123456789,\\n\"\nvector X 99 0 9"},
		{"multichar sep", "pack p\nalphabet \"0123456789,\\n\"\nscalar X 0 9 sep \",,\""},
		{"dangling option", "pack p\nalphabet \"0123456789,\\n\"\nscalar X 0 9 sep"},
		{"unknown option", "pack p\nalphabet \"0123456789,\\n\"\nscalar X 0 9 wat \",\""},
		{"undeclared prompt", "pack p\nalphabet \"0123456789,\\n\"\nscalar X 0 9\nprompt Y"},
		{"too many fields", func() string {
			var b strings.Builder
			b.WriteString("pack p\nalphabet \"0123456789,\\n\"\n")
			for i := 0; i < maxFields+1; i++ {
				b.WriteString("scalar F")
				b.WriteString(strings.Repeat("x", i%3))
				b.WriteString(string(rune('a'+i%26)) + string(rune('a'+i/26)))
				b.WriteString(" 0 9\n")
			}
			return b.String()
		}()},
		{"oversized", strings.Repeat("#", maxManifestBytes+1)},
	}
	for _, tc := range cases {
		if _, err := ParseManifest(tc.src); err == nil {
			t.Errorf("%s: ParseManifest accepted %q", tc.name, tc.src)
		}
	}
}

// TestParseManifestKernelDirectives: the kernel_workers and quantize
// directives went with kernel sharding and the int8 weight store (DESIGN.md
// §15). A manifest that still names one, in any form it once accepted, must
// fail as an unknown directive rather than have it silently ignored.
func TestParseManifestKernelDirectives(t *testing.T) {
	if _, err := ParseManifest(routerManifest); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"kernel_workers 4", "quantize snap", "quantize exact", "quantize off"} {
		_, err := ParseManifest(routerManifest + line + "\n")
		directive := strings.Fields(line)[0]
		if err == nil || !strings.Contains(err.Error(), "unknown directive") || !strings.Contains(err.Error(), directive) {
			t.Errorf("%q: got %v, want an unknown-directive error naming %q", line, err, directive)
		}
	}
}

func TestLoadRejectsOversizedRules(t *testing.T) {
	if _, err := Load(routerManifest, strings.Repeat("#", maxRuleSourceBytes+1), nil); err == nil {
		t.Fatal("oversized rule source accepted")
	}
}
