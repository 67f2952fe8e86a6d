#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ inside the checkout
# and runs it with the caller's arguments. Everything the Go toolchain
# writes (build cache, temp files) and everything the benchmark writes
# (WAL files, crash images) stays under .bench_build/, so the run touches
# nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/bin/qdb-benchmark" .
exec "$build/bin/qdb-benchmark" "$@"
