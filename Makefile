GO ?= go

.PHONY: all build vet fmt-check test race fault-determinism race-hotpath race-suite fuzz-seed fuzz-snapshot refit-drill run-patterns bench-smoke bench-once check bench bench-concurrent bench-all

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file is gofmt-clean: `gofmt -l` lists nothing.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The -run and -bench patterns of the targets below. run-patterns checks
# that every alternative still selects a test or benchmark.
FAULT_RUN = Fault
HOTPATH_RUN = Singleflight|ConcurrentMixedRows|LazyMatchesEager|ParallelSharedOracle|ConcurrentQueryMixedSlots|HotSwapRaceUnderLoad
HOTPATH_PKGS = ./internal/corr/ ./internal/ocs/ ./internal/core/
FUZZ_RUN = FuzzSnapshotRoundTrip|FuzzHandlers
FUZZ_PKGS = ./internal/modelstore/ ./internal/server/
REFIT_RUN = RefitDrill|RefitOnce|Refitter

# The fault injector and the fault-tolerant query policy promise bit-for-bit
# replay under a fixed seed. Running every fault-related test twice in one
# process catches hidden shared state (package-level RNGs, leaked counters).
fault-determinism:
	$(GO) test -run '$(FAULT_RUN)' -count=2 ./...

# Concurrency regression suite for the online hot path: the CorrRow
# singleflight (one Dijkstra under 32 hammering goroutines), the greedy's
# eager-reference equivalence corpus, concurrent greedy solves over one shared
# oracle, mixed-slot System.Query under LRU eviction, and the model hot-swap
# under 32 concurrent fault-tolerant query clients — all under the race
# detector.
race-hotpath:
	$(GO) test -race -run '$(HOTPATH_RUN)' $(HOTPATH_PKGS)

# Fuzz harnesses of the snapshot codec and the HTTP request decoders.
# fuzz-seed replays both seed corpora (fast, deterministic — part of `make
# check`); fuzz-snapshot explores new snapshot inputs for a bounded time.
fuzz-seed:
	$(GO) test -run '$(FUZZ_RUN)' $(FUZZ_PKGS)

fuzz-snapshot:
	$(GO) test -fuzz FuzzSnapshotRoundTrip -fuzztime 15s ./internal/modelstore/

# Full race-detector pass over every package with concurrent state: the query
# pipeline, the correlation oracle, the report collector, the HTTP surface
# (including the 32-client metrics-scrape-during-hot-swap test) and the
# instrument primitives themselves.
race-suite:
	$(GO) test -race ./internal/core/ ./internal/corr/ ./internal/stream/ \
		./internal/server/ ./internal/obs/

# Smoke test of the serving benchmark: every workload briefly, every metric
# BENCHMARK.json names, no failed answer. bench/ is its own module, so the
# root `go test ./...` never runs it.
bench-smoke:
	cd bench && $(GO) test ./...

# End-to-end lifecycle drill under the race detector: streamed reports are
# folded into a refit, gated, published and hot-swapped; a corrupted
# candidate is refused; the operator rolls back and reloads forward.
refit-drill:
	$(GO) test -race -run '$(REFIT_RUN)' -v ./internal/modelstore/

# A renamed test silently drops out of a -run or -bench pass. For every
# alternative of every pattern above (and LAYER_BENCH below), `go test -list`
# must name at least one test or benchmark in the target's packages, and
# FUZZ_RUN must select a fuzz target in each of FUZZ_PKGS.
run-patterns:
	@set -e; \
	selects() { $(GO) test -list "$$@" | grep -qvE '^(ok|\?) '; }; \
	check() { \
		pat=$$1; shift; \
		for alt in $$(echo "$$pat" | tr '|' ' '); do \
			if ! selects "$$alt" "$$@"; then \
				echo "run-patterns: '$$alt' selects nothing in $$*"; exit 1; \
			fi; \
		done; \
	}; \
	check '$(FAULT_RUN)' ./...; \
	check '$(HOTPATH_RUN)' $(HOTPATH_PKGS); \
	check '$(FUZZ_RUN)' $(FUZZ_PKGS); \
	for pkg in $(FUZZ_PKGS); do \
		if ! selects '$(FUZZ_RUN)' $$pkg; then \
			echo "run-patterns: '$(FUZZ_RUN)' selects nothing in $$pkg"; exit 1; \
		fi; \
	done; \
	check '$(REFIT_RUN)' ./internal/modelstore/; \
	check '$(LAYER_BENCH)' $(LAYER_BENCH_PKGS); \
	echo "run-patterns: every alternative selects a test or benchmark"

check: fmt-check vet build run-patterns race fault-determinism race-hotpath race-suite fuzz-seed bench-smoke bench-once

# The layer micro-benchmarks of `make bench`, one iteration each: a benchmark
# that a refactor breaks fails here rather than in the next perf run.
LAYER_BENCH = RowCompute|Redundancy|SelectMetro|Snapshot|SwapModel|FilterStep|ForecastFrom|PlanETA
LAYER_BENCH_PKGS = ./internal/corr/ ./internal/modelstore/ ./internal/core/ ./internal/temporal/ ./internal/router/

bench-once:
	$(GO) test -run '^$$' -bench '$(LAYER_BENCH)' -benchtime 1x $(LAYER_BENCH_PKGS)

# Go micro-benchmarks of the hot layers: concurrent OCS selection and oracle
# row lookups, the row computation, the θ-redundancy query, a metro dispatch
# select, the snapshot codec, the hot-swap, the temporal filter and route
# planning. Save the output per commit and compare
# with benchstat (see EXPERIMENTS.md "Perf trajectory"). Serving performance
# end to end is measured by bench/ (see bench/README.md).
bench: bench-concurrent
	$(GO) test -run '^$$' -bench '$(LAYER_BENCH)' -benchmem $(LAYER_BENCH_PKGS)

bench-concurrent:
	$(GO) test -run '^$$' -bench 'Concurrent|OracleRowThroughput' -benchmem -benchtime 2s .

# Every benchmark of the root package (paper figures + ablations + perf suite).
bench-all:
	$(GO) test -bench=. -benchmem
