GO ?= go

# Version stamped into every binary's -version output (and the daemon's
# /healthz). Override on release builds: make build VERSION=1.2.0
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X repro/internal/buildinfo.Version=$(VERSION)"

.PHONY: check vet staticcheck build test benchmark-test race difftest fuzz-smoke vector-v3 nofma docs docs-check experiments experiments-check bench bench-compare bench-pairs loc chaos-soak serve-smoke tcp-smoke examples

# Tier-1 gate: everything that must pass before a change lands.
check: vet staticcheck build test benchmark-test race difftest fuzz-smoke vector-v3 nofma docs-check

# The likelihood kernels have an amd64 and a portable build; vetting the
# portable one as well keeps kernels_generic.go's wrappers in step.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/likelihood/

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
# message passing, the sharded likelihood kernels, the observability
# plane, and the multi-tenant inference service).
race:
	$(GO) test -race ./internal/comm/... ./internal/core/... ./internal/mlsearch/... ./internal/likelihood/... ./internal/obs/... ./internal/serve/...

# Differential harness: the cached production engine against the direct
# recomputation reference engine over seeded randomized trees, models,
# and data sets (see DESIGN.md §5 for the tolerance contract). -count=1
# defeats the test cache so the harness really runs.
difftest:
	$(GO) test -count=1 -run TestDifferential ./internal/likelihood/difftest/

# Fuzz smoke: ten seconds of native Go fuzzing split over every Fuzz*
# target — fourteen today, so 1 s each (the script's floor): the TCP frame
# parser, the task slice and result slice decoders and the join welcome,
# which read what a peer sends, the PHYLIP, Newick, restart-manifest,
# -weights/-rates and API-key file readers and the daemon's job spec,
# which read what a user, an operator or a client hands the program,
# FuzzApplySPR, a worker's replay of any four node IDs as an SPR move,
# FuzzForemanResults, the foreman's filing of any reply in its round's
# result slots, the vector edge log-likelihood against its scalar
# kernel, and FuzzCompress, pattern compression against its
# comparison-sort oracle
# (the committed corpora alone already run as part of `test`). A finding
# lands in the package's testdata/fuzz/.
fuzz-smoke:
	GO=$(GO) ./scripts/fuzz_smoke.sh 10

# The vector kernels' bit-identity with the scalar ones rests on gc not
# contracting x*y+z into an FMA on amd64. A GOAMD64=v3 build may use
# FMA instructions, so the pins run there too and fail the day it does.
vector-v3:
	GOAMD64=v3 $(GO) test -count=1 -run TestVector ./internal/likelihood/

# No fused multiply-add in the numeric packages (ROADMAP item 14): gc
# contracts x*y+z into one rounding on arm64, ppc64le, s390x and riscv64
# unless the product is rounded by an explicit float64(…). Compile the
# two packages for each and fail on any fused opcode in the assembly.
nofma:
	@for arch in arm64 ppc64le s390x riscv64; do \
		asm=$$(GOARCH=$$arch $(GO) build -gcflags=-S ./internal/likelihood ./internal/model 2>&1) || { echo "$$asm"; exit 1; }; \
		fused=$$(echo "$$asm" | grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADD|FMSUB|FNMADD|FNMSUB|FMADDS|FMSUBS)\b' || true); \
		if [ -n "$$fused" ]; then echo "$$fused"; echo "nofma: $$(echo "$$fused" | wc -l) fused multiply-adds on $$arch"; exit 1; fi; \
		echo "nofma: $$arch ok"; \
	done

# The documents against the code (scripts/docs_check.sh): every DESIGN
# section, ROADMAP item and EXPERIMENTS.md heading cited from the Go
# sources, scripts, this Makefile and ci.yml exists, every test DESIGN.md
# names exists, and README.md's flag blocks are the binaries' -h output.
docs-check:
	GO=$(GO) ./scripts/docs_check.sh

# Rewrite README.md's flag blocks from the binaries' -h output.
docs:
	GO=$(GO) ./scripts/docs_check.sh -update

# Rewrite EXPERIMENTS.md's generated blocks from cmd/scaling's output.
experiments:
	GO=$(GO) ./scripts/experiments.sh -update

# Fail with a diff when a generated EXPERIMENTS.md block is stale (~45 s: its own CI job).
experiments-check:
	GO=$(GO) ./scripts/experiments.sh

# Kernel scaling benchmarks: the sharded pruning and Newton kernels at
# 1/2/4/8 engine threads (benchThreadCounts) under GOMAXPROCS 1/2/4
# (-cpu), with -benchmem asserting
# the zero-alloc steady state, plus the pooled wire-codec round trips.
# The final step re-measures the kernels and archives the numbers as
# bench/BENCH_kernels.json (CI uploads it as an artifact).
bench:
	$(GO) test -run XXX -bench 'DownPartial|Newton|FullSmooth|InsertScore|RestrictedSmooth|EdgeLogLikelihood' -cpu 1,2,4 -benchmem ./internal/likelihood/
	$(GO) test -run XXX -bench Codec -benchmem ./internal/mlsearch/
	FDML_BENCH_DIR=$(CURDIR)/bench $(GO) test -count=1 -run TestKernelBenchJSON -v ./internal/likelihood/

# Regression gate: re-measure the kernels and diff against the committed
# baseline (BENCH_baseline_kernels.json, re-taken whenever a change moves
# a kernel's level on purpose — last after the AVX2 fold and eval). A kernel
# the baseline lacks is listed as "new", one the baseline has and this
# build no longer measures as "removed"; neither is gated.
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

# ROADMAP item 3's acceptance numbers: non-test, non-blank, non-comment
# Go lines of every package under internal/ (difftest included, treetest
# not) and cmd/, then the settable values (exported fields of the
# *Options, *Config, *Policy, WorkerHooks and core.Spec structs in
# internal/comm, internal/mlsearch, internal/serve, internal/core,
# internal/likelihood and cmd/, and the flags of fastdnaml,
# fdworker and fastdnamld; scripts/census), as markdown tables — with
# PARENT set, beside the same counts on that commit and the deltas.
# make loc PARENT=HEAD~1
loc:
	./scripts/loc.sh $(PARENT)

# The library's front door, run: build every examples/ program and run
# it from a temporary directory (microsporidia writes its SVG into the
# working directory). A non-zero exit fails, and prints the program's
# output.
examples:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for ex in examples/*/; do \
		name=$$(basename "$$ex"); \
		$(GO) build -o "$$dir/$$name" "./$$ex" || exit 1; \
		if (cd "$$dir" && "./$$name" >"$$name.log" 2>&1); then \
			echo "examples: $$name ok"; \
		else \
			cat "$$dir/$$name.log"; echo "examples: $$name failed"; exit 1; \
		fi; \
	done

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
