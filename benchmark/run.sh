#!/usr/bin/env bash
# The one command of BENCHMARK.json: build the benchmark from source into
# .bench_build/ at the root of the checkout (Go's build cache goes there too,
# so nothing is written outside the checkout), then run it with the given
# flags, e.g.
#
#   bash benchmark/run.sh --workload fanout_small --seed 1 --seconds 24 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOTOOLCHAIN=local
go -C "$root/benchmark" build -o "$build/adamant-benchmark" . >&2
exec "$build/adamant-benchmark" -repo "$root" "$@"
