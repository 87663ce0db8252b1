#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout, then run it with the driver's arguments. Build outputs and
# the Go build cache stay under .bench_build/, so nothing outside the
# checkout is written.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
