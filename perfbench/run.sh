#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, disk tiers and span files all stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
