#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it.
# Everything the build and the run write stays under .bench_build/ in that
# checkout: the Go build cache, the toolchain's temporary files, the
# binary, model files, feedback logs and span dumps.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTELEMETRY=off
go build -o "$build/clapf-benchmark" ./benchmark
exec "$build/clapf-benchmark" "$@"
