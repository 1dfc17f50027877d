#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given flags (see README.md). Everything the build writes — compiler
# cache, temporary files, the binary — goes under <checkout>/.bench_build,
# and everything a run writes under benchmark/out, so nothing outside the
# checkout is touched. The build fails, and nothing is run, when the
# repository's packages are not beside this directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/pdbbench" .)

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$build/pdbbench" -out "$here/out" -spec "$root/BENCHMARK.json" -commit "$commit" "$@"
