#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root. The Go build cache and the binary stay
# under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPATH="$build/gopath"
mkdir -p "$GOTMPDIR"
go -C "$root/perfbench" build -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" "$@"
