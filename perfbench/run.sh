#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload corpus --seed 42 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build/ in the working directory, and no
# network access is attempted: the module has no dependencies outside
# the repository.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
