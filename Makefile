# Local verify and CI run the exact same commands: .github/workflows/ci.yml
# invokes these targets, so a green `make ci` locally means a green gate.

GO ?= go

.PHONY: all build test test-full vet fmt-check apicheck bench-smoke bench-json kernels conformance cover loadtest ci

all: ci

build:
	$(GO) build ./...

# Fast gate: -short skips the exhaustive internal/xpart searches (~16s).
test:
	$(GO) test -race -short ./...

# The full suite, including the exhaustive lower-bound searches.
test-full:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# API-surface gate: go vet plus scripts/apicheck.sh, which compiles the
# deprecated v1 wrappers against api_test.go's v1 usage and asserts the v2
# Session surface, the typed error sentinels, and the absence of an engine
# dispatch switch in api.go.
apicheck: vet
	sh scripts/apicheck.sh

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Cross-engine conformance suite under the race detector: all four LU
# engines plus Cholesky on shared seeds, at non-power-of-two rank counts,
# feeding the distributed solve — running on the v2 Session surface, so it
# drives every engine through the internal/engine registry. The coverage
# profile of that registry is written to conformance_engine.out and
# uploaded by CI. Also runs inside `make test`; kept addressable so CI
# gates on it explicitly.
# -timeout: the N=4096/P=64 numeric paper-scale case (DESIGN.md §15)
# far outruns go test's default 10m budget under the race detector.
conformance:
	$(GO) test -race -timeout 90m -run 'TestConformance' -v \
		-coverprofile=conformance_engine.out -coverpkg=repro/internal/engine .
	$(GO) tool cover -func=conformance_engine.out

# Coverage summary: full short-suite profile plus the per-function table
# CI uploads as an artifact.
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tee coverage.txt

# Compile and run every benchmark once — catches rotted benchmark code
# without paying for real measurements. -short skips the paper-scale
# (N=16384, P=1024) replay benchmark, which budgets a minute on its own.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' -short ./...

# Machine-readable measurements, uploaded by CI so the perf trajectory is
# recorded run over run:
#  - BENCH_smoke.json: bytes + simulated α-β time per algorithm (the
#    simulated machine's outputs); gitignored, artifact-only.
#  - BENCH_scale_run.json: the host-side perf suite (wall clock + allocs
#    per replay) at small scale, compared against the committed
#    pre-refactor baseline (BENCH_baseline.json, frozen — never regenerate
#    it) by benchdiff — non-blocking, but >10% regressions fail loudly in
#    the log. Like every run below it writes a *_run.json file, so the
#    committed paper-scale record BENCH_scale.json is never overwritten;
#    refresh that record deliberately with
#    `confluxbench -exp perf -scale paper -json BENCH_scale.json`.
#  - BENCH_topo_run.json: the topology sweep (replication depth × network
#    model, DESIGN.md §14), compared against the committed small-scale
#    record BENCH_topo.json. Every number in it is simulated, so benchdiff
#    compares exactly and -exit makes any drift a hard failure — this is a
#    determinism gate, not a perf gate. Regenerate the record with
#    `confluxbench -exp topology -scale small -json BENCH_topo.json`.
#  - BENCH_kernels_run.json: the local level-3 kernel suite (blocked
#    GEMM/TRSM/LU panel vs the seed straight loop, DESIGN.md §15),
#    compared against the committed record BENCH_kernels.json. Rows use
#    the perf threshold; the headline 512×512 blocked-GEMM speedup
#    additionally has a hard ≥4x floor, and -exit makes either failure
#    fatal — the kernels are what lets numeric conformance run at paper
#    scale. Regenerate the record with
#    `confluxbench -exp kernels -json BENCH_kernels.json`.
bench-json:
	$(GO) run ./cmd/confluxbench -exp smoke -json BENCH_smoke.json
	$(GO) run ./cmd/confluxbench -exp perf -scale small -json BENCH_scale_run.json
	$(GO) run ./cmd/benchdiff BENCH_baseline.json BENCH_scale_run.json
	$(GO) run ./cmd/confluxbench -exp topology -scale small -json BENCH_topo_run.json
	$(GO) run ./cmd/benchdiff -exit BENCH_topo.json BENCH_topo_run.json
	$(GO) run ./cmd/confluxbench -exp kernels -json BENCH_kernels_run.json
	$(GO) run ./cmd/benchdiff -exit BENCH_kernels.json BENCH_kernels_run.json

# The kernel micro-benchmark suite with allocation reporting: the Go
# benchmarks behind the BENCH_kernels.json rows, for interactive tuning.
kernels:
	$(GO) test -bench 'BenchmarkKernel' -benchmem -run '^$$' ./internal/blas

# Planner-service load gate: ~50 concurrent clients hammer one plan point
# through confluxd's full HTTP stack; the deterministic result cache must
# collapse the burst to exactly one simulation (asserted via /v1/stats),
# every client must get 200 with the same exact answer, and no goroutines
# may leak after the burst. Runs under the race detector. See DESIGN.md
# §13.
loadtest:
	$(GO) test -race -count=1 -run 'TestConfluxdLoad' -v ./cmd/confluxd

ci: fmt-check apicheck build test
