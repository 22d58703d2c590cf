#!/usr/bin/env bash
# benchpair.sh — alternating before/after runs of one serenabench workload,
# the measurement a performance claim needs:
#
#   BASE=<rev> WORKLOAD=<w> PAIRS=<n> SEED=<s> make benchpair
#
# HEAD is the side under test. OUT (default: a new temporary directory)
# keeps the results, and $OUT/revs records the two commits measured. Both
# revisions are exported with git archive, so a run sees only committed
# files, as in a fresh checkout. Every pair runs
# `bash benchmark/run.sh … --seconds 10 --trace 0` on both sides in the
# foreground, swapping which side goes first each pair, keeps each results
# file as $OUT/<base|rev>-<pair>.json and prints `serenabench -compare` for
# the pair. On exit the exported trees are removed, and the script fails if any
# process started from them is still running.
set -euo pipefail
: "${BASE:?set BASE=<rev>}" "${WORKLOAD:?set WORKLOAD=<workload>}"
PAIRS=${PAIRS:-10} SEED=${SEED:-1}
cd "$(git rev-parse --show-toplevel)"
tmp=$(mktemp -d)
out=${OUT:-$(mktemp -d -t benchpair-results.XXXXXX)}
cleanup() {
	status=$?
	if pgrep -f "$tmp" >/dev/null; then
		echo "benchpair: processes still running from $tmp:" >&2
		pgrep -af "$tmp" >&2
		pkill -f "$tmp" || true
		status=1
	fi
	rm -rf "$tmp"
	exit "$status"
}
trap cleanup EXIT
mkdir -p "$out" "$tmp/base" "$tmp/rev"
git archive "$BASE" | tar -x -C "$tmp/base"
git archive HEAD | tar -x -C "$tmp/rev"
printf 'base %s\nrev %s\n' "$(git rev-parse "$BASE")" "$(git rev-parse HEAD)" >"$out/revs"
echo "benchpair: $WORKLOAD seed $SEED, $PAIRS pairs, base $(git rev-parse --short "$BASE"), rev $(git rev-parse --short HEAD), results in $out"

run() { # run <side> <pair>
	(cd "$tmp/$1" && bash benchmark/run.sh --workload "$WORKLOAD" --seed "$SEED" \
		--seconds 10 --trace 0 >"$out/$1-$2.log" 2>&1) ||
		{ echo "benchpair: $1 run $2 failed:" >&2; tail -5 "$out/$1-$2.log" >&2; exit 1; }
	cp "$tmp/$1/benchmark/out/results-$SEED-$WORKLOAD-trace0.json" "$out/$1-$2.json"
}

for ((i = 1; i <= PAIRS; i++)); do
	if ((i % 2)); then run base "$i"; run rev "$i"; else run rev "$i"; run base "$i"; fi
	echo "== pair $i"
	"$tmp/rev/.bench_build/serenabench" -compare "$out/base-$i.json" "$out/rev-$i.json" || true
done
