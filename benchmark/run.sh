#!/usr/bin/env bash
# Builds the benchmark from source into the checkout and runs it.
#
#   bash benchmark/run.sh --workload <name|all> [--seed 7] [--seconds 10] [--trace 0|1] [--out DIR]
#
# Run from the repository root. Everything the build writes — the binary,
# Go's build cache and module cache — stays under .bench_build/ in the
# checkout; nothing is downloaded (the module has no dependency outside
# the repository). The binary is rebuilt on every call: with a warm cache
# that is a few hundred milliseconds, and it means a run can never
# measure a stale build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: no go.mod in $root: the benchmark builds against the repository it sits in" >&2
	exit 1
fi
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
