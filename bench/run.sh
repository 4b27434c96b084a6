#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh --workload plan-warm --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, goes to .bench_build/
# under the current directory, so a run reads and writes nothing outside
# the checkout. The first run in a fresh checkout compiles the standard
# library and takes a few minutes; later runs reuse the cache.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

go -C "$root/bench" build -o "$build/bin/mlb-bench" .
exec "$build/bin/mlb-bench" "$@"
