# Developer entry points. The repo is pure Go with no dependencies, so
# every target is just a go-tool invocation.

GO ?= go

.PHONY: build test race bench-parallel bench-online chaos online engine vet fmt-check fma-check fuzz cover check

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
# includes TestParallelTrainRaceSmoke, which trains four shards at
# GOMAXPROCS=4 so shard-parallel backward passes are exercised under the
# detector, and
# TestTapePoolConcurrentFitsAndPredict (two Fits and a multi-worker
# PredictCtx leasing from the process's shared tape pool at once) and
# TestAdamScheduleBitIdentical (Adam.Step's second goroutine), and
# internal/autodiff TestLeafGradientInTapeOrder, whose Backward applies
# leaf gradients on a second goroutine beside the walk;
# internal/serve includes TestConcurrentRequestsRaceClean;
# internal/telemetry includes concurrent writer/scraper tests;
# internal/fleet includes the chaos suite (fault-injected replicas,
# kills and callers that leave mid-request); internal/engine includes TestConcurrentStreamingRuns
# (one Engine, shared slab pools and counters, hammered from 8
# goroutines) and internal/workload the worker-count-invariant parallel
# collection tests; internal/physical includes TestPlanKeyRenderedOnce
# (concurrent first calls of a shared plan's memoised Key and Statements)
# and TestStatementsConcurrentPlans (plans rendered at once through the
# shared scratch-buffer pool), and internal/encode the encoder that reads
# them; internal/word2vec includes TestConcurrentTrains (two Trains at
# once, each with its producer goroutine feeding the caller's through a
# ring of chunks, each bit-equal to its serial run); the public API package
# includes TestWriteSideDeterministic (Collect → TrainCostModel → Save on a
# small corpus at GOMAXPROCS 1, 2 and 8 and with Adam on one goroutine, the
# same bytes every time, their content hashed to a committed digest);
# cmd/raalserve runs the binary as launched (a replica with the -online
# feedback worker, a router over two replicas) and drains it, with
# requests, probes and feedback on their own goroutines. The public API
# package alone takes ~7 min under the
# detector on 2 vCPUs, hence the explicit budget. Use `make race-all` for
# the (slow) full sweep.
race:
	$(GO) test -race -timeout 20m ./internal/core ./internal/nn ./internal/autodiff ./internal/tensor ./internal/serve ./internal/telemetry ./internal/fleet ./internal/online ./internal/engine ./internal/workload ./internal/physical ./internal/encode ./internal/word2vec ./cmd/raalserve .

# The experiments package replays full training runs; under the race
# detector that exceeds go test's default 10m per-package timeout on
# small machines, hence the explicit budget.
.PHONY: race-all
race-all:
	$(GO) test -race -timeout 60m ./...

# Data-parallel speedup curves: Predict/Fit by worker count, and plan
# selection's fan-out verdict (SelectPlanCtx at 1, 2 and 4 concurrent
# callers, the default schedule against each request on one goroutine).
bench-parallel:
	$(GO) test ./internal/core -run=XXX -bench 'BenchmarkPredict|BenchmarkFit' -benchmem
	$(GO) test . -run=XXX -bench 'BenchmarkSelectPlanFanOut' -benchmem -count 5

# Chaos drills: the fault-injected fleet suite (seeded FaultConfig
# replicas, a mid-run kill, a caller that leaves mid-attempt) and the
# connection drills (replicas that close idle connections, frame bodies
# every way, answer malformed HTTP, stall, or lose their caller mid-body)
# under the race detector. The zero-loss drill then runs ten more times:
# it is the evidence that one attempt per replica plus failover loses no
# request (DESIGN §5h). A failure here is a real robustness bug, not
# flake.
chaos:
	$(GO) test -race -run 'TestChaos|TestConn' -count=1 -v ./internal/fleet
	$(GO) test -race -run '^TestChaosFleetZeroLoss$$' -count=10 ./internal/fleet

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

# Engine gate: the frozen golden digests (TestEngineGoldenDigests, and
# TestCollectGoldenDigests for what workload collection keeps and skips);
# the engine held to the row-at-a-time reference interpreter in engine_test
# on the edge queries and the IMDB/TPC-H generated corpora, including every
# candidate plan of a query returning the same relation, and the
# FuzzPipeline seeds, among them star joins that trip the row limit on the
# first probe batch or mid-stream (TestStreamingFuzzSeedsTrip); joins
# failing before they gather past the limit and gathering only live
# columns (TestStreamingJoinTripsBeforeGather,
# TestStreamingDeadColumnsNotGathered); the allocation bounds
# (TestStreamingAllocsPerRowBounded: under 1% mallocs per scanned row on a
# join + grouped aggregate; TestStreamingWarmRunAllocs: no more mallocs per
# warm run than before liveness) and the parallel collection invariant.
# Throughput is bench/'s engine.rows_per_s, not a test.
engine:
	$(GO) test -run 'Streaming|Golden|FuzzPipeline|TestCollectWorker' -count=1 ./internal/engine ./internal/workload

vet:
	$(GO) vet ./...

# Fails when gofmt would rewrite any file of the root module (bench/ is its
# own module with its own gate and is left out).
fmt-check:
	@out=$$(gofmt -l . | grep -v '^bench/' || true); \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files (run gofmt -w on them):"; echo "$$out"; exit 1; fi

# arm64 fused multiply-add census of the numeric packages that move the
# trained weights: internal/tensor's portable Go loops are the only
# kernels off amd64, and internal/autodiff's backward pass and
# internal/nn's Adam step turn their products into gradients and weights;
# internal/core's reported loss, internal/encode's features and
# internal/metrics' held-out scores are read off those weights;
# internal/sparksim's simulated runtimes, internal/workload's sampled
# allocations and internal/catalog's selectivities are the labels and
# inputs those weights are fitted to; internal/word2vec's embeddings are
# the encoder's token vectors, and internal/engine, internal/physical,
# internal/cardest, internal/logical, internal/sql and internal/datagen
# make the plans, cardinalities and data the labels are measured on (they
# hold no fused product today; listing them keeps it so). Each
# rounds every such product (float64(x*y)) so that no port fuses a
# multiply-add and arm64 computes the bits amd64 does (DESIGN §5j). Fails
# on any FMADD/FMSUB/FNMADD/FNMSUB in a listed package's arm64 assembly
# listing, or when a package has no listing. The other packages that
# still fuse on arm64 are not listed yet (ROADMAP, "One set of bits on
# every port").
FMA_PKGS = internal/tensor internal/autodiff internal/nn internal/core internal/encode internal/metrics internal/sparksim internal/workload internal/catalog internal/word2vec internal/engine internal/physical internal/cardest internal/logical internal/sql internal/datagen
FMA_OPS = [[:space:]]F(N?)M(ADD|SUB)[DS][[:space:]]
fma-check:
	@for pkg in $(FMA_PKGS); do \
	    asm=$$(GOARCH=arm64 $(GO) build -gcflags=raal/$$pkg=-S ./$$pkg 2>&1); \
	    if ! echo "$$asm" | grep -q STEXT; then echo "fma-check: no arm64 listing of $$pkg"; echo "$$asm"; exit 1; fi; \
	    n=$$(echo "$$asm" | grep -cE '$(FMA_OPS)'); \
	    if [ "$$n" -ne 0 ]; then echo "$$asm" | grep -E '$(FMA_OPS)'; echo "fma-check: $$n fused multiply-adds in $$pkg on arm64"; exit 1; fi; \
	done

# Per-package coverage gate: every package that has tests, each cmd/
# binary included, must cover at least COVER_FLOOR% of its statements
# (packages with no test files — examples/, test helpers — are exempt).
# The floor sits just below the current minimum (internal/cardest, ~68%),
# so real regressions fail while normal churn passes.
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
# lexes request bytes before anything has parsed them; the whole
# parse → bind → plan → execute pipeline, held to the reference
# interpreter on a tiny catalog; the router's reader of replica answers,
# held to net/http's on arbitrary bytes; the plan-statement tokeniser, held to
# the encoder's string-free embedding; the AVX2 sigmoid and tanh kernels,
# held to the math library bit for bit; the float64 matmul kernels
# (AVX2, and AVX-512 where the CPU has it), held to the Go loop bit for bit
# on special values, and their accumulate mode (MatMulAddInto,
# MatMulTransAAddInto: a gradient += the product) to that loop's product
# added by AddInPlace; every candidate plan's statements and key, held
# to the fmt-based reference renderer on a tiny catalog; the fused,
# recorded LSTM cell, held to the op chain it replaced in values and
# gradients, bit for bit, on special values; the ragged LSTM
# recurrence, held to itself run padded in hidden states and weight
# gradients, bit for bit, on random lengths; word2vec training (a
# producer goroutine drawing negatives, and the fused AVX2 kernel beside
# the activations or its Go loop applying each pair), held to
# one-sample-at-a-time SGD in both embedding matrices, bit for bit, on
# random small corpora and widths, some spanning several ring chunks; the
# simulator, over generated plans under every allocation of the default
# resource grid: Estimate is Breakdown's total bit for bit, finite and not
# negative, deterministic per seed, and monotone in input rows; and
# the cost-model and
# checkpoint loaders, which must refuse any byte sequence with an error or
# return a model that prices a fixed plan without panicking (the seed corpora
# plus any committed inputs also replay under plain `go test`). Targets are
# <package>:<FuzzName>. go test fuzzes one target per run, so the targets
# share FUZZTIME (whole seconds) equally, one after the other.
FUZZTIME ?= 25s
FUZZ_TARGETS = ./internal/sql:FuzzParse ./internal/sql:FuzzCanonicalKey ./internal/engine:FuzzPipeline ./internal/encode:FuzzTokenize ./internal/tensor:FuzzActivations ./internal/tensor:FuzzMatMul ./internal/physical:FuzzStatements ./internal/fleet:FuzzReplicaResponse ./internal/nn:FuzzLSTMCell ./internal/nn:FuzzRaggedLSTM ./internal/word2vec:FuzzWord2Vec .:FuzzSimulator .:FuzzLoadCostModel
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
# The arm64 vet and build keep the portable-Go build (no AVX2 kernels,
# internal/tensor/matmul_other.go and act_other.go) compiling; vet on
# amd64 already checks the assembly's frame offsets against its Go
# declarations (asmdecl); fma-check keeps that build's numeric packages
# (FMA_PKGS) free of fused multiply-adds.
check: vet fmt-check fma-check test fuzz
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	$(GO) vet -C bench .
	$(GO) test -C bench .
