GO ?= go

.PHONY: all build test race race-stress loc cover bench bench-check benchpair soak e2e chaos experiments fuzz examples fmt vet check clean

all: build vet test

# The CI gate: formatting, static checks, and the full test suite under
# the race detector. Any file gofmt would change fails it. staticcheck runs
# when installed (CI installs it; locally it is optional so `make check`
# works on a bare toolchain).
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed (run make fmt):"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; \
	fi
	$(GO) test -race ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency tests, twenty times each under the race detector: a
# few-percent flake (a lost increment, a missed coalescing bucket) shows up
# on the push that introduces it instead of weeks later.
race-stress:
	$(GO) test -race -count=20 -run 'TestMetricsConcurrentExactness|TestParallel|TestBatchedParallel' ./internal/query
	$(GO) test -race -count=20 -run 'TestParallelDeltaEquivalentToSequentialNaive|TestParallelTickEquivalentToSequential' ./internal/cq
	$(GO) test -race -count=20 -run 'TestMemo' ./internal/service

# Engine size per package (non-test, benchmark/ excluded) — the count a
# deletion PR quotes; see scripts/loc.sh.
loc:
	@sh scripts/loc.sh

cover:
	$(GO) test -cover ./...

# Full benchmark suite → machine-readable BENCH_<date>.json at the repo
# root (BENCHTIME=10x for a quick pass; see scripts/bench.sh).
bench:
	sh scripts/bench.sh

# Regression gate: run the suite into BENCH_check.json, then (a) fail if a
# gated benchmark (BenchmarkInvoke*/BenchmarkDurableTick/
# BenchmarkDeltaInvocation*) regressed >20% against the previous report —
# missing or cross-machine baselines pass with a warning (cmd/benchfmt
# -diff) — (b) fail unless the incremental evaluator beats the naive one at
# every window size of the sweep, and (c) fail unless N readers over one
# materialized INTO relation beat N re-evaluated window queries at every
# fan-in width — both same-run comparisons with no cannot-compare escape
# (cmd/benchfmt -faster).
bench-check:
	OUT=BENCH_check.json sh scripts/bench.sh
	$(GO) run ./cmd/benchfmt -diff BENCH_check.json
	$(GO) run ./cmd/benchfmt \
		-faster 'BenchmarkDeltaInvocation/delta<BenchmarkDeltaInvocation/naive' \
		BENCH_check.json
	$(GO) run ./cmd/benchfmt \
		-faster 'BenchmarkMaterializedFanIn/materialized<BenchmarkMaterializedFanIn/reeval' \
		BENCH_check.json

# Alternating before/after serenabench runs (--seconds 10 --trace 0) of one
# workload, HEAD against a base revision, with a -compare per pair (see
# scripts/benchpair.sh):
#   BASE=<rev> WORKLOAD=<w> PAIRS=<n> SEED=<s> make benchpair
benchpair:
	bash scripts/benchpair.sh

# Overload soak: flood a bounded stream at ~2× drain capacity under -race
# and assert bounded memory, honored sheds and an intact action set; plus
# the SIGKILL crash-during-overload variant (see scripts/soak.sh).
soak:
	sh scripts/soak.sh

# End-to-end dead-man smoke: boot pemsd + serena over the wire, register
# a CQ over sys$streams, SIGKILL the node, and assert the STALLED tuple
# plus the /debug/health and /metrics surfaces (see scripts/e2e_smoke.sh).
e2e:
	bash scripts/e2e_smoke.sh

# Federated node-loss chaos: a 3-node pemsd cluster (two peers replicating
# the same service references, one coordinator), SIGKILL a random peer
# mid-query and assert masking — victim down within a lease, ticks keep
# flowing, deliveries identical to a never-crashed control run
# (see scripts/cluster_chaos.sh; CHAOS_ITERS bounds the kill loop).
chaos:
	bash scripts/cluster_chaos.sh

# Regenerate the EXPERIMENTS.md tables.
experiments:
	$(GO) run ./cmd/benchrun -exp all

# Quick fuzz pass over the three parsers, the value codec the WAL and the
# wire share, and the WAL's framing, records and checkpoints.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/sal/
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/ddl/
	$(GO) test -fuzz=FuzzCompile -fuzztime=10s ./internal/ssql/
	$(GO) test -fuzz=FuzzDecodeRows -fuzztime=10s ./internal/value/
	$(GO) test -fuzz=FuzzScanFrames -fuzztime=10s ./internal/wal/
	$(GO) test -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/wal/
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime=10s ./internal/wal/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/surveillance
	$(GO) run ./examples/rssfeeds
	$(GO) run ./examples/distributed
	$(GO) run ./examples/dashboard

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean -testcache
