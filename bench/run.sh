#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source into the
# checkout's own .bench_build (binary and, unless the caller set one, the Go
# build cache too, so nothing is written outside the checkout), then become
# the benchmark process. Arguments pass through: --workload --seed --seconds
# --trace. By hand, `go run ./bench` does the same with the user's Go cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="${GOCACHE:-$PWD/.bench_build/gocache}"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
