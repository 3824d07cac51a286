#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload corpus-cold --seed 1 --seconds 10 --trace 0
#
# Run from the root of the repository. Build outputs, the Go build
# cache and every file a run writes stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench.bin" .
exec "$out/perfbench.bin" "$@"
