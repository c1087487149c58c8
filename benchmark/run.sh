#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: BENCHMARK.json's command. Everything the Go toolchain writes — build
# cache, temporary files, its own counters — goes under .bench_build, so a run
# reads and writes nothing outside the checkout. By hand, `go run ./benchmark`
# from the repository root does the same with your own Go environment.
set -euo pipefail
cd "$(dirname "$0")/.."
[ -f go.mod ] || { echo "benchmark: no go.mod here: the benchmark builds inside the ltephy module" >&2; exit 1; }
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
go build -o "$build/ltephy-benchmark" ./benchmark
exec "$build/ltephy-benchmark" "$@"
