GO ?= go

.PHONY: all tier1 verify bench loc fmt clean

all: verify

# Tier-1 gate: what CI and the roadmap require at minimum.
tier1:
	$(GO) build ./...
	$(GO) test ./...

# Full verify path: tier-1 plus static checks (vet's asmdecl pass is the
# frame-layout check of internal/tensor's assembly), the race detector over
# the concurrent packages (the solver, the decode loop — DecodeRequests' lane
# groups share one *nn.Model across goroutines — and the serving daemon), GELU against its reference on all 2^32 inputs (≈ 80 s on 2 cores),
# a cross-build so the non-amd64 kernel body cannot rot, then vet + test of
# bench/ — a nested module, so ./... above never compiles it although it
# imports internal/.
verify: tier1
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	GOMAXPROCS=4 $(GO) test -race ./internal/core/... ./internal/smt/... ./internal/nn/... ./internal/server/... ./internal/router/... ./internal/prefixcache/... ./internal/pack/...
	$(GO) test -count=1 -v -run 'TestGELUMatchesReference' ./internal/tensor/ -gelufull
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/nn/
	(cd bench && $(GO) vet . && $(GO) test .)

# Kernel and engine microbenchmarks (vs seed-copy references). End-to-end
# numbers come from the repository benchmark: bash bench/run.sh (see
# bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Non-test code size: non-blank, non-// lines of non-test *.go plus *.s
# under internal, cmd and lejit. The one line count simplicity changes quote.
loc:
	@find internal cmd lejit \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) -print0 | \
		xargs -0 cat | grep -cvE '^[[:space:]]*(//|$$)'

fmt:
	gofmt -w .

clean:
	rm -f lejit lejitd repro.test
