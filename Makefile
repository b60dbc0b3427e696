# Tier-1 gate: everything `make ci` runs must stay green.

GO ?= go

# Pinned external tool versions. Both run through `go run pkg@version`
# so no go.mod dependency is added; when the module proxy is
# unreachable (offline/sandboxed builds) the targets skip with a notice
# instead of failing, keeping `make ci` green without network.
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@2024.1.1
GOVULNCHECK = golang.org/x/vuln/cmd/govulncheck@v1.1.3

.PHONY: ci fmt-check vet vet-invariants lint staticcheck govulncheck \
	build test race bench bench-smoke chaos experiments

ci: fmt-check vet vet-invariants build race chaos lint bench-smoke staticcheck govulncheck

# Custom invariant passes (tools/analyzers): compiled programs are
# immutable after construction, serve/rest never store a
# context.Context in a struct, only internal/dom/index reads the
# per-document index maps / raw cache slots (always behind the version
# stamp), the optimizer and the walker never mutate shared AST nodes
# (rewrites must copy; join and memo state stays in the evaluator),
# the store's raw shard state is only touched by shard.go's
# lock-upholding methods, and DOM mutation in the query/serving layers
# only happens through the pending-update list.
# Stdlib-only stand-ins for the `go vet -vettool` analyzers, which
# would need golang.org/x/tools.
vet-invariants:
	$(GO) run ./tools/analyzers -check progmutate internal/xquery internal/xquery/runtime
	$(GO) run ./tools/analyzers -check ctxstruct internal/serve internal/rest internal/fed
	$(GO) run ./tools/analyzers -check idxversion internal/dom/index internal/dom internal/xquery/runtime internal/xquery/funclib internal/serve
	$(GO) run ./tools/analyzers -check ftversion internal/fulltext/index internal/dom internal/xquery/runtime internal/xquery/funclib internal/xmldb internal/serve
	$(GO) run ./tools/analyzers -check planpure internal/xquery/plan internal/xquery/runtime
	$(GO) run ./tools/analyzers -check storesync internal/xmldb
	$(GO) run ./tools/analyzers -check pulapply internal/serve internal/rest internal/fed \
		internal/fulltext internal/xmldb internal/dom/index internal/xdm \
		internal/xquery internal/xquery/plan \
		internal/xquery/analysis internal/xquery/funclib internal/xquery/parser \
		internal/xquery/ast internal/xquery/lexer
	$(GO) run ./tools/analyzers -check recovercheck $(shell $(GO) list -f '{{.Dir}}' ./...)

# Static analysis of the shipped example programs: every embedded
# XQuery script block must lint clean, warnings included.
lint:
	$(GO) run ./cmd/xqlint -werror $(wildcard examples/*/*.go)

staticcheck:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./...; \
	else echo "staticcheck: $(STATICCHECK) unavailable (offline); skipped"; fi

govulncheck:
	@if $(GO) run $(GOVULNCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK) ./...; \
	else echo "govulncheck: $(GOVULNCHECK) unavailable (offline); skipped"; fi

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection suite: drives the faultpoint matrix (dispatch panics,
# mid-apply update faults, resolver failures, index-build faults, load
# shedding, torn store commits and aborted store recoveries, plus the
# federation matrix: flaky/torn/hung backends, injected fed.call /
# fed.merge faults, suppressed hedges and caller cancellation)
# race-enabled and checks the pool stays serviceable with atomic
# documents, the store recovers byte-identical state, federated queries
# return byte-identical results or typed errors without goroutine
# leaks, and the failure counters advance.
chaos:
	$(GO) test -race -count=1 ./internal/faultpoint
	$(GO) test -race -count=1 -run 'Chaos|Rollback|Fault|Restore' \
		./internal/serve ./internal/xquery/update ./internal/dom/index \
		./internal/xmldb ./internal/fed ./internal/rest

# Full benchmarks: every gate at its threshold, and the committed
# BENCH_*.json trajectory files rewritten from full timed runs.
bench:
	$(GO) test -bench . -benchmem -run xxx . ./internal/serve
	$(GO) run ./cmd/benchserve -check -out BENCH_serve.json
	$(GO) run ./cmd/benchpath -check -out BENCH_pathindex.json
	$(GO) run ./cmd/benchcompile -check -out BENCH_compile.json
	$(GO) run ./cmd/benchstore -check -out BENCH_store.json
	$(GO) run ./cmd/benchft -check -out BENCH_ft.json
	$(GO) run ./cmd/benchfed -check -out BENCH_fed.json

# Cheap CI gates: one iteration per serving scenario (cache/metrics
# accounting stays exact), a short fixed-iteration path-index run
# (indexed //x at least 5x faster than the scan, identical results),
# the optimizer gate (join, hoist and pushdown FLWORs at least 2x
# faster optimized than on the parsed tree, identical results), the
# store gate (4-shard parallel collection scan at least 2x faster than
# 1 shard, identical document sets), the full-text gate (indexed
# ftcontains at least 5x faster than the tokenize-and-scan baseline,
# byte-identical results), and the federation gate (hedged p99 at
# least 2x better than unhedged with one stalled backend of four,
# identical merged results). Smoke snapshots go to the gitignored
# $(SMOKE_DIR), so they never overwrite the committed full-run files.
SMOKE_DIR = .bench_smoke

bench-smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/benchserve -smoke -out $(SMOKE_DIR)/BENCH_serve.json
	$(GO) run ./cmd/benchpath -smoke -out $(SMOKE_DIR)/BENCH_pathindex.json
	$(GO) run ./cmd/benchcompile -smoke -out $(SMOKE_DIR)/BENCH_compile.json
	$(GO) run ./cmd/benchstore -smoke -out $(SMOKE_DIR)/BENCH_store.json
	$(GO) run ./cmd/benchft -smoke -out $(SMOKE_DIR)/BENCH_ft.json
	$(GO) run ./cmd/benchfed -smoke -out $(SMOKE_DIR)/BENCH_fed.json

experiments:
	$(GO) run ./cmd/experiments
