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
HOTPATH_RUN = Singleflight|AbortedField|ConcurrentMixedRows|RowConcurrentDeepening|LazyMatchesEager|CertifiedMatchesEager|ParallelSharedOracle|ConcurrentQueryMixedSlots|HotSwapRaceUnderLoad|ReportWalkConcurrent|ReportLifetimeProperty|ReadsRaceSilence
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
# singleflight (one Dijkstra under 32 hammering goroutines), the Batcher's
# Estimate and Select singleflights (8 followers of one in-flight request run
# nothing and get its answer bit for bit), a field aborted at one caller's
# deadline that no live follower or warm seed receives (its live followers
# share the next run), eight clients reporting one slot and then the next
# while others estimate (the filter walks once and fuses the left slot's
# aggregates once), a seeded random report stream over many days with
# outages and silences of up to two days (the collector holds nothing more
# than half a day behind the filter, each slot holds one day's reports, and
# the filter follows the stream), the Batcher's reads (EstimateTier,
# Forecast, Mark, RouteETA) racing a report walk and a twelve-hour jump of
# the collector's clock (after it every read sees no aggregates until the
# next report restarts the filter), one row deepened from many goroutines while
# others read it, the greedy's eager-reference equivalence corpora (random
# instances, and the certified rows on the 5k metro), concurrent greedy
# solves over one shared oracle, concurrent mixed-slot queries of the
# simulated query loop (sim.RunQuery on pinned engines) under oracle-LRU
# eviction, and the model hot-swap under 32 concurrent fault-tolerant
# sim.RunQuery clients — all under the race detector.
race-hotpath:
	$(GO) test -race -run '$(HOTPATH_RUN)' $(HOTPATH_PKGS)

# Fuzz harnesses of the snapshot codec and the HTTP request decoders.
# fuzz-seed replays both seed corpora (fast, deterministic — part of `make
# check`); fuzz-snapshot explores new snapshot inputs for a bounded time.
fuzz-seed:
	$(GO) test -run '$(FUZZ_RUN)' $(FUZZ_PKGS)

fuzz-snapshot:
	$(GO) test -fuzz FuzzSnapshotRoundTrip -fuzztime 15s ./internal/modelstore/

# Full race-detector pass over every package with concurrent state: the
# serving engine, the simulated query loop that drives it, the correlation
# oracle, the report collector, the shard fan-out
# (one goroutine per shard on every sharded select and estimate), the HTTP
# surface (including the 32-client metrics-scrape-during-hot-swap test and
# sharded serving) and the instrument primitives themselves.
race-suite:
	$(GO) test -race ./internal/core/ ./internal/sim/ ./internal/corr/ \
		./internal/stream/ ./internal/shard/ ./internal/server/ ./internal/obs/

# Smoke test of the serving benchmark: every workload briefly, every metric
# BENCHMARK.json names, no failed answer. bench/ is its own module, so the
# root `go test ./...` never runs it.
bench-smoke:
	cd bench && $(GO) test ./...

# End-to-end lifecycle drill under the race detector: streamed reports are
# folded into a refit, gated, published and hot-swapped; a corrupted
# candidate is refused; the operator rolls back and reloads forward. The
# RefitOnce tests include eight concurrent refits over the same closed
# slots, which publish exactly one version.
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
LAYER_BENCH = RowCompute|Redundancy|SelectMetro|SelectPaper|Snapshot|SwapModel|FilterStep|ForecastFrom|PlanETA
LAYER_BENCH_PKGS = ./internal/corr/ ./internal/modelstore/ ./internal/core/ ./internal/temporal/ ./internal/router/

bench-once:
	$(GO) test -run '^$$' -bench '$(LAYER_BENCH)' -benchtime 1x $(LAYER_BENCH_PKGS)

# Go micro-benchmarks of the hot layers: concurrent OCS selection and oracle
# row lookups, the row computation, the θ-redundancy query, a metro dispatch
# select on fresh rows and a paper-scale one on cached rows, the snapshot
# codec, the hot-swap, the temporal filter and route planning. Save the
# output per commit and compare with benchstat (see EXPERIMENTS.md "Perf
# trajectory"). Serving performance end to end is measured by bench/ (see
# bench/README.md).
bench: bench-concurrent
	$(GO) test -run '^$$' -bench '$(LAYER_BENCH)' -benchmem $(LAYER_BENCH_PKGS)

bench-concurrent:
	$(GO) test -run '^$$' -bench 'Concurrent|OracleRowThroughput' -benchmem -benchtime 2s .

# Every benchmark of the root package (paper figures + ablations + perf suite).
bench-all:
	$(GO) test -bench=. -benchmem
