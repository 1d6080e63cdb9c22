#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the repository root. The build cache, the toolchain's temporary
# files and the binary all go under .bench_build/ in the checkout, so a run
# reads and writes nothing outside it (span files and temporary WAL
# directories go under bench/out/).
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/ipmbench" ./bench
exec "$build/ipmbench" "$@"
