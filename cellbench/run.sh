#!/usr/bin/env bash
# Builds the whole-cell benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cellbench/run.sh --workload paper --seed 1 --seconds 35 --trace 0
#
# The go command's cache, temporary files and configuration, the binary
# and the run records all live in .bench_build/ under the current
# directory, so nothing is written outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C cellbench build -buildvcs=false -o "$out/cellbench" .
exec "$out/cellbench" "$@"
