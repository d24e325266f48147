GO ?= go

.PHONY: all build vet fmt-check test race fault-determinism race-hotpath race-suite fuzz-seed fuzz-snapshot refit-drill bench-smoke bench-once check bench bench-concurrent bench-all

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

# The fault injector and the resilient pipeline promise bit-for-bit replay
# under a fixed seed. Running every fault-related test twice in one process
# catches hidden shared state (package-level RNGs, leaked counters).
fault-determinism:
	$(GO) test -run Fault -count=2 ./...

# Concurrency regression suite for the online hot path: the CorrRow
# singleflight (one Dijkstra under 32 hammering goroutines), the parallel
# greedy equivalence corpus, mixed-slot System.Query under LRU eviction, and
# the model hot-swap under 32 concurrent resilient clients — all under the
# race detector.
race-hotpath:
	$(GO) test -race -run 'Singleflight|ConcurrentMixedRows|ParallelEquivalence|ParallelSharedOracle|ConcurrentQueryMixedSlots|HotSwapRaceUnderLoad' \
		./internal/corr/ ./internal/ocs/ ./internal/core/

# Snapshot-codec fuzz harness. fuzz-seed replays the checked-in seed corpus
# (fast, deterministic — part of `make check`); fuzz-snapshot explores new
# inputs for a bounded time.
fuzz-seed:
	$(GO) test -run FuzzSnapshotRoundTrip ./internal/modelstore/

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
	$(GO) test -race -run 'RefitDrill|RefitOnce|Refitter' -v ./internal/modelstore/

check: fmt-check vet build race fault-determinism race-hotpath race-suite fuzz-seed bench-smoke bench-once

# The layer micro-benchmarks of `make bench`, one iteration each: a benchmark
# that a refactor breaks fails here rather than in the next perf run.
LAYER_BENCH = 'RowCompute|Redundancy|SelectMetro|Snapshot|SwapModel|FilterStep|ForecastFrom|PlanETA'
LAYER_BENCH_PKGS = ./internal/corr/ ./internal/modelstore/ ./internal/core/ ./internal/temporal/ ./internal/router/

bench-once:
	$(GO) test -run '^$$' -bench $(LAYER_BENCH) -benchtime 1x $(LAYER_BENCH_PKGS)

# Go micro-benchmarks of the hot layers: concurrent OCS selection and oracle
# row lookups, the row computation, the θ-redundancy query, a metro dispatch
# select, the snapshot codec, the hot-swap, the temporal filter and route
# planning. Save the output per commit and compare
# with benchstat (see EXPERIMENTS.md "Perf trajectory"). Serving performance
# end to end is measured by bench/ (see bench/README.md).
bench: bench-concurrent
	$(GO) test -run '^$$' -bench $(LAYER_BENCH) -benchmem $(LAYER_BENCH_PKGS)

bench-concurrent:
	$(GO) test -run '^$$' -bench 'Concurrent|OracleRowThroughput' -benchmem -benchtime 2s .

# Every benchmark of the root package (paper figures + ablations + perf suite).
bench-all:
	$(GO) test -bench=. -benchmem
