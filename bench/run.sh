#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command of
# BENCHMARK.json. Run from the root of a checkout; everything it writes
# stays inside the checkout (.bench_build/ and bench/out/).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

# The Go toolchain's caches, temporary files and per-user files (go/env,
# go/telemetry under the config directory) go under the checkout, and
# nothing is fetched: the benchmark imports only the standard library
# and this repository.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$here" -o "$build/bonsai-bench" .

# The commit is recorded in the run document when the checkout is a git
# repository (the search stops at the checkout's root).
BENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT

cd "$root"
exec "$build/bonsai-bench" "$@"
