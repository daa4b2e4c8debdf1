#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the driver's arguments:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# Everything it writes — the Go build and module caches, the binary, the
# stores of the sweep and serving workloads — stays inside the current
# directory, under .bench_build and a .bench_tmp-* directory the binary
# removes on exit.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOMODCACHE="$PWD/.bench_build/gomodcache"
export GOTOOLCHAIN=local
go build -o .bench_build/streambench ./benchmark
exec .bench_build/streambench "$@"
