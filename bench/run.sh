#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it there, so nothing is read or written outside the checkout.
# Usage (from the repository root): bash bench/run.sh [flags]; see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# The module needs nothing but the standard library and the parent module:
# keep every Go directory inside the checkout and the network out of it.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local
go -C "$here" build -o "$build/ecbench" .
cd "$root"
exec "$build/ecbench" "$@"
