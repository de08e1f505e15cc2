#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run leave behind stays in .bench_build/ at
# the repository root: the Go build cache, the binary, and the sockets of
# the _wire workloads.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

# The module has no dependencies outside this repository: never reach
# for the network or another toolchain.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPROXY=off GOTOOLCHAIN=local

go build -C bench -o "$build/clampi-bench" .
exec "$build/clampi-bench" "$@"
