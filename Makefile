GO ?= go

# Where machine-readable benchmark reports land. Override per-figure, e.g.
#   make bench-spec BENCH_OUT=BENCH_6.json
BENCH_OUT ?= bench.json

.PHONY: all tier1 verify bench bench-spec bench-pack bench-cores bench-load fmt clean

all: verify

# Tier-1 gate: what CI and the roadmap require at minimum.
tier1:
	$(GO) build ./...
	$(GO) test ./...

# Full verify path: tier-1 plus static checks and the race detector over
# the concurrent packages (the solver, the decode loop, and the serving
# daemon), then vet + test of bench/ — a nested module, so ./... above never
# compiles it although it imports internal/.
verify: tier1
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	GOMAXPROCS=4 $(GO) test -race ./internal/core/... ./internal/smt/... ./internal/nn/... ./internal/server/... ./internal/router/... ./internal/prefixcache/... ./internal/pack/...
	(cd bench && $(GO) vet . && $(GO) test .)

# Kernel and engine microbenchmarks (vs seed-copy references). End-to-end
# numbers come from the repository benchmark: bash bench/run.sh (see
# bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Speculative-decoding sweep (BENCH_6.json in the committed tree): lookahead
# 0 sweeps k in {0,2,4,8,16}; setting SPEC_LOOKAHEAD=k compares {0,k} only.
SPEC_LOOKAHEAD ?= 0
bench-spec:
	$(GO) run ./cmd/lejit-bench -scale tiny -fig spec -json $(BENCH_OUT) -lookahead $(SPEC_LOOKAHEAD)

# Domain-pack benchmark (BENCH_7.json in the committed tree): one lejitd
# serving the telemetry, routercfg, and fincompliance packs under a mixed
# workload with a fincompliance rule hot-reload fired halfway through.
bench-pack:
	$(GO) run ./cmd/lejit-bench -scale tiny -fig pack -json $(BENCH_OUT)

# Multi-core kernel sweep (BENCH_8.json in the committed tree): GOMAXPROCS ×
# batch over the sharded GEMM path plus the int8-vs-float32 comparison. The
# lejit-bench invocation itself fails if either bit-exactness boolean is
# false; the nproc guard below only refuses to *claim a speedup* from a
# single-CPU host, where the sweep can measure determinism but not scaling.
bench-cores:
	@if [ "$$(nproc)" -le 1 ]; then \
		echo "bench-cores: single-CPU host — report will carry null speedups and a warning"; fi
	$(GO) run ./cmd/lejit-bench -scale tiny -fig cores -json $(BENCH_OUT)

# Open-loop load sweep (BENCH_9.json in the committed tree): Poisson
# arrivals against lejitd fleets of 1, 2, and 4 engine shards at 4 offered
# rates, half the requests streamed over SSE. lejit-bench itself hard-fails
# unless streamed==unary bit-identity holds and zero mis-seeded/stale-epoch
# responses were observed. LOAD_CONNS caps in-flight connections (CI uses a
# small cap; the default exercises 10k).
LOAD_CONNS ?= 10000
bench-load:
	$(GO) run ./cmd/lejit-bench -scale tiny -fig load -json $(BENCH_OUT) -load-conns $(LOAD_CONNS)

fmt:
	gofmt -w .

clean:
	rm -f lejit lejitd repro.test
