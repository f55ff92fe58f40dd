#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload office-comap --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temporaries, config) stays
# under .bench_build/ in the current directory, and the toolchain never goes
# to the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
