GO ?= go

# Version stamped into every binary's -version output (and the daemon's
# /healthz). Override on release builds: make build VERSION=1.2.0
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X repro/internal/buildinfo.Version=$(VERSION)"

.PHONY: check vet staticcheck build test benchmark-test race difftest fuzz-smoke bench bench-compare bench-pairs loc chaos-soak serve-smoke tcp-smoke

# Tier-1 gate: everything that must pass before a change lands.
check: vet staticcheck build test benchmark-test race difftest fuzz-smoke

vet:
	$(GO) vet ./...

# staticcheck runs when the tool is on PATH (CI installs it); local
# environments without it skip with a note rather than failing.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

# The repository benchmark (BENCHMARK.json, benchmark/) is a module of
# its own, so ./... above does not reach it: vet it and run its tests
# (decorator transparency, layer budget, a smoke of every workload).
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Race detector over the concurrency-bearing packages (parallel runtime,
# message passing, the sharded likelihood kernels — including the
# float32/float64 precision property tests — the observability plane,
# and the multi-tenant inference service).
race:
	$(GO) test -race ./internal/comm/... ./internal/mlsearch/... ./internal/likelihood/... ./internal/obs/... ./internal/serve/...

# Differential harness: the cached production engine against the direct
# recomputation reference engine over seeded randomized trees, models,
# and data sets, in both CLV precisions (see DESIGN.md §5g for the
# tolerance contract). -count=1 defeats the test cache so the harness
# really runs.
difftest:
	$(GO) test -count=1 -run TestDifferential ./internal/likelihood/difftest/

# Fuzz smoke: ten seconds of native Go fuzzing split over every Fuzz*
# target — four today, so 2 s each: the TCP frame parser, the task slice
# and result slice decoders and the join welcome, which read what a peer
# sends (the committed corpora alone already run as part of `test`). A
# finding lands in the package's testdata/fuzz/.
fuzz-smoke:
	GO=$(GO) ./scripts/fuzz_smoke.sh 10

# Kernel scaling benchmarks: the sharded pruning and Newton kernels at
# 1/2/4 engine threads under GOMAXPROCS 1/2/4, with -benchmem asserting
# the zero-alloc steady state, plus the pooled wire-codec round trips.
# The final step re-measures the kernels and archives the numbers as
# bench/BENCH_kernels.json (CI uploads it as an artifact).
bench:
	$(GO) test -run XXX -bench 'DownPartial|Newton|FullSmooth|GradientSmooth' -cpu 1,2,4 -benchmem ./internal/likelihood/
	$(GO) test -run XXX -bench Codec -benchmem ./internal/mlsearch/
	FDML_BENCH_DIR=$(CURDIR)/bench $(GO) test -count=1 -run TestKernelBenchJSON -v ./internal/likelihood/

# Regression gate: re-measure the kernels and diff against the committed
# baseline (BENCH_baseline_kernels.json, re-taken whenever a change moves
# a kernel's level on purpose — last after the spectral fold). A kernel
# the baseline lacks is listed as "new" and not gated.
# Fails when any kernel is >10% slower than baseline; the stdout table
# is markdown, ready for a CI job summary.
bench-compare:
	FDML_BENCH_DIR=$(CURDIR)/bench $(GO) test -count=1 -run TestKernelBenchJSON ./internal/likelihood/
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline_kernels.json -current bench/BENCH_kernels.json -max-regress 0.10

# The end-to-end claim protocol in one command: PAIRS (default 10)
# alternating runs of WORKLOAD on the PARENT commit and on this checkout,
# identical benchmark code on both sides, printed as the markdown table
# EXPERIMENTS.md uses. make bench-pairs PARENT=HEAD~1 WORKLOAD=serial20
bench-pairs:
	./scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# ROADMAP item 3's acceptance number: non-test, non-blank, non-comment
# Go lines of internal/comm, internal/mlsearch, internal/serve,
# internal/core and cmd/, as a markdown table — with PARENT set, beside
# the same count on that commit and the delta. make loc PARENT=HEAD~1
loc:
	./scripts/loc.sh $(PARENT)

# Black-box smoke test of the fastdnamld daemon over real HTTP: build
# the binaries, start a 2-worker daemon, submit a job and its duplicate
# with curl, assert the duplicate is a zero-dispatch cache hit, the
# fresh job's tree matches a serial fastdnaml run, and /metrics exposes
# tenant-labeled counters.
serve-smoke:
	./scripts/serve_smoke.sh

# Black-box smoke test of a distributed run: build fastdnaml and
# fdworker, run a -listen master with two real fdworker processes on a
# run the welcome must describe in full (HKY85, per-site weights and
# rates), and require exit 0 all round, a .best.tree byte-identical to
# the serial run's, and tasks served by both workers.
tcp-smoke:
	./scripts/tcp_smoke.sh

# The chaos soaks under the race detector: elastic membership, plus
# concurrent jumbles multiplexed over a churning fleet. The membership
# soak's BENCH_*.json report lands in bench/ (CI uploads it).
chaos-soak:
	FDML_BENCH_DIR=$(CURDIR)/bench $(GO) test -race -count=1 -run 'TestTCPChaosSoak|TestConcurrentTCPChaosSoak' ./internal/mlsearch/
