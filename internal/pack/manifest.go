package pack

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/rules"
)

// Manifest size caps. These bound what a hostile or corrupt manifest can
// make the loader build: the schema instantiation, grammar expansion, and
// rule compilation below all scale with these numbers.
const (
	maxManifestBytes = 16 << 10
	maxFields        = 32
	maxVectorLen     = 32
	maxFieldHi       = 1_000_000
	maxAlphabetLen   = 64
)

// ParseManifest parses a pack manifest: the schema, decode shape, and
// identity of a pack, one directive per line ('#' starts a comment).
//
//	pack    routercfg
//	version v1
//	alphabet "0123456789;|\n"
//	scalar  NumAcls 1 6 after "|"
//	vector  RefAcl 4 0 6 sep ";" after "|"
//	vector  PrefixLen 4 0 32 sep ";" after "|"
//	vector  Action 4 0 1 sep ";" after "\n"
//	prompt  NumAcls
//
// Fields appear in grammar order; separators are quoted Go strings holding
// exactly one character. The returned definition has no rule text, LM, or
// examples — callers fill those in before Compile (see Load).
func ParseManifest(src string) (*Definition, error) {
	if len(src) > maxManifestBytes {
		return nil, fmt.Errorf("pack: manifest is %d bytes (max %d)", len(src), maxManifestBytes)
	}
	def := &Definition{Version: "v1"}
	var fields []rules.Field
	seen := map[string]bool{}
	for ln, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		toks := strings.Fields(line)
		if len(toks) == 0 {
			continue
		}
		errf := func(format string, args ...any) error {
			return fmt.Errorf("pack: manifest line %d: %s", ln+1, fmt.Sprintf(format, args...))
		}
		switch toks[0] {
		case "pack":
			if len(toks) != 2 {
				return nil, errf("want: pack <name>")
			}
			def.Name = toks[1]
		case "version":
			if len(toks) != 2 {
				return nil, errf("want: version <string>")
			}
			def.Version = toks[1]
		case "alphabet":
			if len(toks) != 2 {
				return nil, errf("want: alphabet <quoted-string>")
			}
			a, err := strconv.Unquote(toks[1])
			if err != nil {
				return nil, errf("bad alphabet: %v", err)
			}
			if len(a) == 0 || len(a) > maxAlphabetLen {
				return nil, errf("alphabet length %d (want 1..%d)", len(a), maxAlphabetLen)
			}
			def.Alphabet = a
		case "scalar", "vector":
			f, g, err := parseFieldDirective(toks)
			if err != nil {
				return nil, errf("%v", err)
			}
			if seen[f.Name] {
				return nil, errf("duplicate field %q", f.Name)
			}
			seen[f.Name] = true
			if len(fields) >= maxFields {
				return nil, errf("more than %d fields", maxFields)
			}
			fields = append(fields, f)
			def.Grammar = append(def.Grammar, g)
		case "prompt":
			if len(toks) < 2 {
				return nil, errf("want: prompt <field...>")
			}
			def.PromptFields = append(def.PromptFields, toks[1:]...)
		default:
			return nil, errf("unknown directive %q", toks[0])
		}
	}
	if def.Name == "" {
		return nil, fmt.Errorf("pack: manifest has no 'pack' directive")
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("pack: manifest declares no fields")
	}
	if def.Alphabet == "" {
		return nil, fmt.Errorf("pack: manifest has no 'alphabet' directive")
	}
	for _, p := range def.PromptFields {
		if !seen[p] {
			return nil, fmt.Errorf("pack: prompt field %q not declared", p)
		}
	}
	schema, err := rules.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("pack: manifest schema: %w", err)
	}
	def.Schema = schema
	return def, nil
}

// parseFieldDirective parses one scalar/vector line into a schema field and
// its grammar entry.
func parseFieldDirective(toks []string) (rules.Field, GrammarField, error) {
	var f rules.Field
	var g GrammarField
	kind := toks[0]
	f.Kind = rules.Scalar
	f.Len = 1
	args := toks[1:]
	// scalar <name> <lo> <hi> ... | vector <name> <len> <lo> <hi> ...
	want := 3
	if kind == "vector" {
		f.Kind = rules.Vector
		want = 4
	}
	if len(args) < want {
		return f, g, fmt.Errorf("want: %s <name> %s<lo> <hi> [sep <q>] [after <q>]",
			kind, map[string]string{"scalar": "", "vector": "<len> "}[kind])
	}
	f.Name = args[0]
	nums := args[1:want]
	rest := args[want:]
	vals := make([]int64, len(nums))
	for i, s := range nums {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return f, g, fmt.Errorf("bad number %q", s)
		}
		vals[i] = v
	}
	if kind == "vector" {
		if vals[0] < 1 || vals[0] > maxVectorLen {
			return f, g, fmt.Errorf("vector length %d (want 1..%d)", vals[0], maxVectorLen)
		}
		f.Len = int(vals[0])
		vals = vals[1:]
	}
	f.Lo, f.Hi = vals[0], vals[1]
	if f.Lo < 0 || f.Hi < f.Lo || f.Hi > maxFieldHi {
		return f, g, fmt.Errorf("domain [%d,%d] (want 0 <= lo <= hi <= %d)", f.Lo, f.Hi, maxFieldHi)
	}
	g.Field = f.Name
	g.ElemSep, g.After = ',', '\n'
	for len(rest) >= 2 {
		c, err := strconv.Unquote(rest[1])
		if err != nil || len(c) != 1 {
			return f, g, fmt.Errorf("separator %q must be a quoted single character", rest[1])
		}
		switch rest[0] {
		case "sep":
			g.ElemSep = c[0]
		case "after":
			g.After = c[0]
		default:
			return f, g, fmt.Errorf("unknown option %q", rest[0])
		}
		rest = rest[2:]
	}
	if len(rest) != 0 {
		return f, g, fmt.Errorf("dangling option %q", rest[0])
	}
	return f, g, nil
}

// Load builds a pack from manifest and rule-file sources. lm may be nil
// (UniformLM placeholder). Malformed sources error cleanly — FuzzLoadPack
// holds Load to "never panic, never poison a registry".
func Load(manifestSrc, ruleSrc string, lm core.LM) (*Compiled, error) {
	def, err := ParseManifest(manifestSrc)
	if err != nil {
		return nil, err
	}
	if len(ruleSrc) > maxRuleSourceBytes {
		return nil, fmt.Errorf("pack: rule source is %d bytes (max %d)", len(ruleSrc), maxRuleSourceBytes)
	}
	def.RuleText = ruleSrc
	def.LM = lm
	return Compile(*def)
}
