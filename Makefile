# Developer entry points. The repo is pure Go with no dependencies, so
# every target is just a go-tool invocation.

GO ?= go

.PHONY: build test race bench bench-parallel bench-online chaos online quant engine vet fmt-check fuzz cover check

build:
	$(GO) build ./...

# Tier-1 verification: everything must build and pass. Tests run in a
# shuffled order so hidden inter-test dependencies (shared globals,
# leaked goroutines, order-coupled fixtures) surface in CI instead of
# in a refactor.
test: build
	$(GO) test -shuffle=on ./...

# Race-detector run over the packages with concurrency on the hot path
# (data-parallel training/inference, the serving layer, the telemetry
# registry, and the numeric stack), plus the public API. internal/core
# includes TestParallelTrainRaceSmoke, which trains with Workers=4 so
# shard-parallel backward passes are exercised under the detector;
# internal/serve includes TestConcurrentRequestsRaceClean and
# TestBatcherRaceStress (mixed-deadline clients hammering the
# micro-batch coalescer through a concurrent Close);
# internal/telemetry includes concurrent writer/scraper tests;
# internal/fleet includes the chaos suite (hedged requests racing
# drains and kills) and internal/backoff the context-cancellation
# property tests; internal/engine includes TestConcurrentStreamingRuns
# (one Engine, shared slab pools and counters, hammered from 8
# goroutines) and internal/workload the worker-count-invariant parallel
# collection tests. The public API package alone takes ~7 min under the
# detector on 2 vCPUs, hence the explicit budget. Use `make race-all` for
# the (slow) full sweep.
race:
	$(GO) test -race -timeout 20m ./internal/core ./internal/nn ./internal/autodiff ./internal/tensor ./internal/serve ./internal/telemetry ./internal/fleet ./internal/backoff ./internal/online ./internal/engine ./internal/workload .

# The experiments package replays full training runs; under the race
# detector that exceeds go test's default 10m per-package timeout on
# small machines, hence the explicit budget.
.PHONY: race-all
race-all:
	$(GO) test -race -timeout 60m ./...

# Paper tables/figures as benchmarks (see bench_test.go).
bench:
	$(GO) test -bench=. -benchmem .

# Data-parallel speedup curves: Predict/Fit by worker count.
bench-parallel:
	$(GO) test ./internal/core -run=XXX -bench 'BenchmarkPredict|BenchmarkFit' -benchmem

# Chaos drills: the fault-injected fleet suite (seeded FaultConfig
# replicas, mid-run kills, drain-during-hedge) under the race detector.
# Deterministic — a failure here is a real robustness bug, not flake.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 -v ./internal/fleet

# Online-learning drills under the race detector: the seeded workload
# shift (drift detector → replay-buffer retrain → shadow comparison →
# promotion), the hot-swap soak (concurrent requests racing 48
# promote/rollback swaps, zero torn reads allowed), and the admin
# surface. Deterministic end to end — the loop inherits Fit's
# bit-reproducibility.
online:
	$(GO) test -race -run 'TestOnline' -count=1 -v ./internal/online

# The seeded drift drill as a report (results/BENCH_online.json):
# pre-shift vs drift-peak vs post-promotion q-error. Everything but ns_op
# reproduces bit for bit; TestOnlineReproducesCommittedReport checks it.
bench-online:
	$(GO) run ./cmd/raalbench -exp online -json -outdir results

# Reduced-precision gate: the accuracy-gate and precision tests (typed
# refusal + f64 fallback, non-finite predictions refused, bit-reproducible
# f32 predict, precision-tagged cache isolation, requantize-on-promotion).
# core.TestQuantizedCloseToFloat64 holds the paper-level bound: the
# 0.9-quantile q-error delta of f32 must stay <= 0.05.
quant:
	$(GO) test -run 'Quant|Precision' -count=1 ./internal/core ./internal/online ./internal/tensor .

# Engine gate: the frozen golden digests (TestEngineGoldenDigests); the
# engine held to the row-at-a-time reference interpreter in engine_test on
# the edge queries and the IMDB/TPC-H generated corpora, including every
# candidate plan of a query returning the same relation, and the
# FuzzPipeline seeds; the allocation bound (TestStreamingAllocsPerRowBounded:
# under 1% mallocs per scanned row on a join + grouped aggregate) and the
# parallel collection invariant. Throughput is bench/'s engine.rows_per_s,
# not a test.
engine:
	$(GO) test -run 'Streaming|Golden|FuzzPipeline|TestCollectWorker' -count=1 ./internal/engine ./internal/workload

vet:
	$(GO) vet ./...

# Fails when gofmt would rewrite any file of the root module (bench/ is its
# own module with its own gate and is left out).
fmt-check:
	@out=$$(gofmt -l . | grep -v '^bench/' || true); \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files (run gofmt -w on them):"; echo "$$out"; exit 1; fi

# Per-package coverage gate: every package that has tests must cover at
# least COVER_FLOOR% of its statements (packages with no test files —
# cmd/, examples/, test helpers — are exempt). The floor sits just below
# the current minimum (internal/cardest, ~68%), so real regressions fail
# while normal churn passes.
COVER_FLOOR ?= 65
cover:
	@$(GO) test -cover ./... > cover.tmp; s=$$?; cat cover.tmp; \
	if [ $$s -ne 0 ]; then rm -f cover.tmp; exit $$s; fi; \
	awk -v floor=$(COVER_FLOOR) '$$1 == "ok" { \
	    for (i = 1; i < NF; i++) if ($$i == "coverage:") { \
	        pct = $$(i+1); sub(/%/, "", pct); \
	        if (pct + 0 < floor) bad = bad sprintf("\n  %s %s%%", $$2, pct); \
	    } } \
	    END { if (bad != "") { printf "\npackages below %s%% coverage:%s\n", floor, bad; exit 1 } \
	          printf "\nall tested packages meet the %s%% coverage floor\n", floor }' cover.tmp; \
	s=$$?; rm -f cover.tmp; exit $$s

# Short fixed-budget fuzz: the parser; the router's affinity key, which
# lexes request bytes before anything has parsed them; and the whole
# parse → bind → plan → execute pipeline, held to the reference
# interpreter on a tiny catalog (the seed corpora plus any committed
# inputs also replay under plain `go test`). Targets are
# <package>:<FuzzName>. go test fuzzes one target per run, so the targets
# share FUZZTIME (whole seconds) equally, one after the other.
FUZZTIME ?= 16s
FUZZ_TARGETS = ./internal/sql:FuzzParse ./internal/sql:FuzzCanonicalKey ./internal/engine:FuzzPipeline
fuzz:
	total=$(FUZZTIME); each=$$(( $${total%s} / $(words $(FUZZ_TARGETS)) )); \
	for target in $(FUZZ_TARGETS); do \
	    $(GO) test $${target%%:*} -run=XXX -fuzz="^$${target##*:}\$$" -fuzztime=$${each}s || exit 1; \
	done

# The pre-merge gate: static checks (vet, gofmt), the full test suite, a
# fuzz smoke of the SQL front end and the execution pipeline, and the
# benchmark module's own vet and tests (~12 s). bench/ is its own module
# (replace raal => ../) importing raal/internal/{core,tensor}, so
# `go test ./...` never compiles it: an internal-API refactor could break
# the benchmark silently without this.
# The arm64 vet and build keep the generic-only build (no AVX2 kernels,
# internal/tensor/matmul_other.go) compiling; vet on amd64 already checks
# the assembly's frame offsets against its Go declarations (asmdecl).
check: vet fmt-check test fuzz
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	$(GO) vet -C bench .
	$(GO) test -C bench .
