#!/bin/bash
# Builds and runs the benchmark from the root of a checkout: BENCHMARK.json's
# command. The Go build cache, the linker's work directory and the binary are
# kept under .bench_build in the checkout, so a run reads and writes nothing
# outside it; the first build in a fresh checkout takes about 45 s.
set -e
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/go-cache" GOTMPDIR="$PWD/.bench_build/tmp" GOTOOLCHAIN=local
go build -o .bench_build/op2ca-benchmark ./benchmark
exec .bench_build/op2ca-benchmark "$@"
