#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with
# the arguments given, e.g.
#
#   bash perfbench/run.sh --workload fleet-mixed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
