#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from source into
# .bench_build/ at the root of the checkout, then runs the benchmark with
# the arguments given. Everything the build and the run write — the Go
# build cache included — stays inside the checkout. Building happens
# before the benchmark starts, so it is outside every metric.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/bin/benchmark" .
go build -C "$root" -o "$build/bin/metarepaird" ./cmd/metarepaird
cd "$root"
exec "$build/bin/benchmark" -daemon "$build/bin/metarepaird" -scratch "$build/tmp" "$@"
