#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sim-real-cnn --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, temporary files, the binary) stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
