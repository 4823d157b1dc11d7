package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// updateCLITranscripts rewrites testdata/*.txt from the current CLI instead
// of comparing against them. A re-pin must say which bytes moved, and why
// (DESIGN.md §5, "Pinned transcripts").
var updateCLITranscripts = flag.Bool("update", false, "rewrite testdata/*.txt from the current CLI")

// cliModes are the -mode values of impute and generate, in transcript order.
var cliModes = []string{"lejit", "structure", "vanilla", "rejection", "posthoc"}

// TestCLITranscripts pins the bytes lejit impute and generate print: a tiny
// model trained here and rules mined here, impute -n 40 and generate -n 20
// in every -mode, each at -workers 1 and -workers 4, against
// testdata/impute.txt and testdata/generate.txt. Both worker counts must
// print the file, so the test also holds output independent of -workers.
// Rejection's retries draw long RNG streams, past the 607-word state of a
// math/rand source. The kernel's rounding is pinned on amd64 only, so other
// GOARCHes skip.
func TestCLITranscripts(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("CLI transcripts are pinned on amd64, not %s", runtime.GOARCH)
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	rulesPath := filepath.Join(dir, "rules.txt")
	if err := cmdTrain([]string{
		"-racks", "8", "-windows", "30", "-epochs", "4",
		"-dim", "32", "-layers", "1", "-heads", "2", "-o", model,
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMine([]string{"-racks", "3", "-windows", "20", "-o", rulesPath}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		impute bool
		n      string
	}{{"impute", true, "40"}, {"generate", false, "20"}} {
		t.Run(c.name, func(t *testing.T) {
			var got [2]bytes.Buffer
			for k, workers := range []string{"1", "4"} {
				for _, mode := range cliModes {
					out := captureStdout(t, func() {
						if err := cmdDecode([]string{
							"-model", model, "-rules", rulesPath, "-n", c.n,
							"-seed", "5", "-mode", mode, "-workers", workers,
						}, c.impute); err != nil {
							t.Fatal(err)
						}
					})
					fmt.Fprintf(&got[k], "# %s -n %s -mode %s\n%s", c.name, c.n, mode, out)
				}
			}
			path := filepath.Join("testdata", c.name+".txt")
			if *updateCLITranscripts {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got[0].Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run go test ./cmd/lejit -run TestCLITranscripts -update to create it)", err)
			}
			for k, workers := range []string{"1", "4"} {
				diffLines(t, fmt.Sprintf("%s at -workers %s", path, workers), got[k].String(), string(want))
			}
		})
	}
}

// diffLines reports the first five lines where got and want differ.
func diffLines(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", what, i+1, g, w)
			if shown++; shown == 5 {
				return
			}
		}
	}
}
