#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory, which
# must be the repository root, and runs it with the given arguments:
#
#   bash bench/run.sh --workload paper-vt-heuristic --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and Go's own settings stay under
# .bench_build, so the run writes nothing outside the checkout. The first
# run compiles the standard library into that cache; later runs reuse it.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
