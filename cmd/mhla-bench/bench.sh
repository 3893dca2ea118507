#!/usr/bin/env bash
# Builds mhla-bench from source and runs it with the given arguments,
# from the root of a repository checkout:
#
#   bash cmd/mhla-bench/bench.sh --workload run-paper --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache,
# binary, telemetry, the sweep workload's snapshot directories) stays
# under .bench_build in the current directory. The build is offline and
# uses the installed toolchain.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$(dirname "$0")" && go build -o "$build/mhla-bench" .)
exec "$build/mhla-bench" "$@"
