#!/usr/bin/env bash
# Builds serenabench from the checkout this script sits in and runs it with
# the given arguments, from the checkout's root:
#
#   bash benchmark/run.sh --workload oneshot --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind (binary, Go build cache) goes under
# .bench_build/ in the checkout, nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/serenabench" ./benchmark
exec "$build/serenabench" "$@"
