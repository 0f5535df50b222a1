#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
#
#   bash perfbench/run.sh --workload <spec-batch|serve-hot|serve-wide> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build product and cache lands in
# .bench_build/ under that root; the toolchain is kept offline.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	XDG_CACHE_HOME="$out/home/.cache" GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off GOFLAGS= CGO_ENABLED=0
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
