#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload durable-mix --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
