#!/bin/sh
# soak.sh — run the overload soak harness under the race detector: a
# producer flooding a bounded SHED_NEWEST stream at far beyond drain
# capacity, latency-faulted invocations, a tick budget every tick overruns
# and passive coalescing, all at once. The harness
# asserts sheds are honored and counted, buffer depth and retained stream
# state stay bounded, and the active query's action set exactly equals an
# unloaded control run — plus the SIGKILL crash-during-overload variant.
#
# Environment:
#   SOAK_DUMP  file to receive a full metrics-registry dump when the soak
#              fails (CI uploads it as an artifact; default soak-metrics.txt)
set -eu

cd "$(dirname "$0")/.."

SOAK_DUMP="${SOAK_DUMP:-$PWD/soak-metrics.txt}"
export SOAK_DUMP

echo "running overload soak (dump on failure: $SOAK_DUMP)..." >&2
go test -race -count=1 -v \
	-run '^(TestOverloadSoak|TestCrashDuringOverloadSIGKILL)$' \
	./internal/bench/ ./internal/pems/
echo "soak passed" >&2
