#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own in this directory) into
# .bench_build/ inside the checkout and runs it from the repository root.
# Nothing outside the checkout is written: the Go build cache lives in
# .bench_build/ too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
bin="$build/lejit-bench"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
stale() {
	[ ! -x "$bin" ] && return 0
	[ -n "$(find bench internal go.mod \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]
}
if stale; then
	mkdir -p "$build"
	(cd bench && go build -o "$bin" .) >&2
fi
exec "$bin" "$@"
