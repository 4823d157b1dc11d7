package repro

// The link gate: every non-test function under internal/ and cmd/ is linked
// into some binary this repository builds, or is on linkAllowlist with its
// reason. Run with:
//
//	go test -count=1 -run TestEveryFunctionLinked . -linkgate
//
// (make verify does). A function that only tests call belongs in a _test.go
// file of its package; one that nothing calls is deleted.

import (
	"bufio"
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var linkGate = flag.Bool("linkgate", false, "TestEveryFunctionLinked builds every main with inlining off and fails on each function no binary links (≈ 10 s with a cold build cache, 1 s warm, on 2 cores)")

// linkAllowlist names the functions no binary links that stay anyway, keyed
// as linkKey spells them. Interface markers (an unexported method with no
// parameters, no results and an empty body) are recognised by their shape
// and need no entry.
var linkAllowlist = map[string]string{
	// GOARCH variant: amd64 links matacc_amd64.s in its place.
	"repro/internal/tensor.matAccumGeneric": "MatAccum's body on every GOARCH but amd64 (matacc_other.go); tensor's tests compare the assembly against it",

	// Test seams another package's tests call, so they cannot move into a
	// _test.go file of their own package.
	"repro/internal/smt.EvalFormula":   "independent evaluator core's repair tests check an accepted patch against (core/repair_test.go)",
	"repro/internal/smt.LinExpr.Eval":  "EvalFormula's term evaluation",
	"repro/internal/smt.FormulaString": "names the broken formula in core's repair test failures",
	"repro/internal/pack.FromEngine":   "wraps a bare engine as a pack for server and router tests",
}

// TestEveryFunctionLinked builds every main package (cmd/..., examples/...
// and the nested bench module) with -gcflags=all=-l, so that inlining cannot
// hide a call, reads each binary's text symbols with go tool nm, and fails
// on every function declared outside _test.go files under internal/ and cmd/
// that no binary holds. The public lejit package is exempt: its API is for
// users, and what it calls under internal/ is checked through examples/.
func TestEveryFunctionLinked(t *testing.T) {
	if !*linkGate {
		t.Skip("run with -linkgate (make verify)")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("the allowlist's GOARCH variants are written for amd64")
	}
	linked := linkedSymbols(t)
	declared := declaredFuncs(t, "internal", "cmd")
	var missing []string
	for key, pos := range declared {
		if linked[key] || linked[pointerWrapper(key)] {
			continue
		}
		if _, ok := linkAllowlist[key]; ok {
			continue
		}
		missing = append(missing, pos+": "+key)
	}
	for key := range linkAllowlist {
		if _, ok := declared[key]; !ok {
			t.Errorf("linkAllowlist names %s, which is not declared", key)
		} else if linked[key] || linked[pointerWrapper(key)] {
			t.Errorf("linkAllowlist names %s, which a binary links: drop the entry", key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("no binary links %s", m)
	}
	t.Logf("%d functions declared, %d allowlisted, %d unlinked", len(declared), len(linkAllowlist), len(missing))
}

// linkedSymbols builds every main into a temporary directory and returns the
// set of its text symbols, spelled as linkKey spells a declaration: generic
// instantiations lose their type arguments, an assembly function its ABI0
// suffix, and a main package's "main." prefix becomes its import path.
func linkedSymbols(t *testing.T) map[string]bool {
	dir := t.TempDir()
	mains := strings.Fields(goOutput(t, ".", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./cmd/...", "./examples/..."))
	args := append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, mains...)
	goOutput(t, ".", args...)
	bins := map[string]string{} // binary path -> import path of its main package
	for _, m := range mains {
		bins[filepath.Join(dir, path.Base(m))] = m
	}
	benchBin := filepath.Join(dir, "bench.bin")
	goOutput(t, "bench", "build", "-gcflags=all=-l", "-o", benchBin, ".")
	bins[benchBin] = "repro/bench"

	linked := map[string]bool{}
	for bin, mainPath := range bins {
		sc := bufio.NewScanner(strings.NewReader(goOutput(t, ".", "tool", "nm", bin)))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := stripTypeArgs(strings.Join(f[2:], " "))
			name = strings.TrimSuffix(name, ".abi0")
			if rest, ok := strings.CutPrefix(name, "main."); ok {
				name = mainPath + "." + rest
			}
			linked[name] = true
		}
	}
	return linked
}

// declaredFuncs parses every non-test .go file under the given directories
// (whatever its build constraints) and returns each function's linkKey with
// its position. init functions, blank functions and interface markers are
// left out.
func declaredFuncs(t *testing.T, roots ...string) map[string]string {
	fset := token.NewFileSet()
	out := map[string]string{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkgPath := "repro/" + filepath.ToSlash(filepath.Dir(p))
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" || isMarker(fn) {
					continue
				}
				out[linkKey(pkgPath, fn)] = fset.Position(fn.Pos()).String()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// linkKey spells a declaration as the linker names its symbol:
// "pkg.F", "pkg.T.M" or "pkg.(*T).M", type parameters dropped.
func linkKey(pkgPath string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkgPath + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		recv = "(*" + recv + ")"
	}
	return pkgPath + "." + recv + "." + fn.Name.Name
}

// pointerWrapper turns "pkg.T.M" into "pkg.(*T).M", the wrapper the compiler
// generates for a value-receiver method called through a pointer or an
// interface. Any other key comes back unchanged.
func pointerWrapper(key string) string {
	i := strings.LastIndex(key, "/")
	parts := strings.Split(key[i+1:], ".")
	if len(parts) != 3 || strings.HasPrefix(parts[1], "(") {
		return key
	}
	return key[:i+1] + parts[0] + ".(*" + parts[1] + ")." + parts[2]
}

// isMarker reports an interface marker: an unexported method with no
// parameters, no results and an empty body. It closes a sum type to the
// compiler and is never called, so the linker always drops it.
func isMarker(fn *ast.FuncDecl) bool {
	return fn.Recv != nil && !fn.Name.IsExported() && fn.Type.Params.NumFields() == 0 &&
		fn.Type.Results.NumFields() == 0 && fn.Body != nil && len(fn.Body.List) == 0
}

// stripTypeArgs drops every bracketed type-argument list from a symbol:
// "pkg.F[go.shape.[]int]" becomes "pkg.F".
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// goOutput runs the go command in dir and returns its standard output,
// failing the test with its standard error.
func goOutput(t *testing.T, dir string, args ...string) string {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}
