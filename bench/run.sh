#!/usr/bin/env bash
# Builds the serving benchmark from the sources of this checkout and runs it
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload paper-dispatch --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the checkout. The Go build cache and the binary stay
# inside the checkout (.bench_build/), and the build never reaches the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$build/rtse-bench" .)
exec "$build/rtse-bench" "$@"
