#!/bin/bash
# The command of BENCHMARK.json: build the benchmark from source inside the
# checkout and run it with the arguments given. `go run ./benchmark` does the
# same for a person at a shell; this keeps the build cache and the binary
# under .bench_build in the checkout, so that a run writes nowhere else.
set -eu
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
