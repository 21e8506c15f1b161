#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it there.
# Everything the go tool writes (build cache, binaries) stays inside the
# checkout, under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOWORK=off
mkdir -p .bench_build/bin
go build -C benchmark -o "$root/.bench_build/bin/benchmark" .
exec .bench_build/bin/benchmark "$@"
