#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given, from the root of the checkout:
#
#   bash perfbench/run.sh --workload query-static --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run leave behind stays in .bench_build/:
# the go command's cache, temporary and configuration directories point
# there too.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
