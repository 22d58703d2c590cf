#!/usr/bin/env bash
# cluster_chaos.sh — federated node-loss chaos harness.
#
# Boots a 3-node pemsd cluster: two peers replicating the SAME service
# references (a deterministic sensor under -svc-prefix shared, and an
# "alert" messenger with an fsync'd -outbox file), plus a coordinator
# running an embedded durable core that polls the replicated sensor every
# tick and fires an active sendMessage alert. Then it SIGKILLs a random
# peer mid-run and asserts node-loss masking:
#
#   1. the coordinator marks the victim down within ~one lease (/debug/peers),
#   2. ticks keep flowing with zero tick errors (passive β failed over),
#   3. the union of the peers' outbox files equals a never-crashed
#      control run's — every alert delivered exactly once, none duplicated,
#   4. a SIGTERM'd (drained) peer is marked down by Bye, not lease expiry.
#
# Requires only bash, curl and the go toolchain. CHAOS_ITERS bounds the
# kill loop (default 1). Exits non-zero with a log dump on any failure.
set -euo pipefail

cd "$(dirname "$0")/.."

ITERS="${CHAOS_ITERS:-1}"
WORK="${CHAOS_DATA_DIR:-$(mktemp -d)}"
mkdir -p "$WORK"
LEASE="1s"
# Every started node's PID, one a line. run_cluster runs inside $(…), a
# subshell whose variables never reach this shell, so the PIDs travel
# through a file that cleanup reads.
PIDFILE="$WORK/pids"
: >"$PIDFILE"
cleanup() {
	while read -r pid; do
		kill -9 "$pid" 2>/dev/null || true
	done <"$PIDFILE"
	[ -z "${CHAOS_DATA_DIR:-}" ] && rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
	echo "chaos: FAIL: $*" >&2
	for log in "$WORK"/*/*.log; do
		echo "---- $log ----" >&2
		cat "$log" >&2 || true
	done
	exit 1
}

# wait_for <file> <pattern> [timeout-seconds]
wait_for() {
	local file="$1" pattern="$2" timeout="${3:-30}" i=0
	while ! grep -q "$pattern" "$file" 2>/dev/null; do
		i=$((i + 1))
		[ "$i" -ge $((timeout * 10)) ] && fail "timed out waiting for '$pattern' in $file"
		sleep 0.1
	done
}

# peer_state <debug-addr> <node> — prints the node's state from /debug/peers.
peer_state() {
	curl -fsS "http://$1/debug/peers" 2>/dev/null |
		tr -d ' \n' | grep -o "\"node\":\"$2\",\"addr\":\"[^\"]*\",\"state\":\"[a-z]*\"" |
		sed 's/.*"state":"\([a-z]*\)"/\1/' | head -1
}

echo "chaos: building pemsd"
go build -o "$WORK/pemsd" ./cmd/pemsd

# The init DDL: an environment whose continuous queries drive β across the
# cluster every tick (passive poll over the replicated sensor) and once per
# contact (active alert through the replicated messenger).
cat >"$WORK/chaos.ddl" <<'EOF'
EXTENDED RELATION contacts (
  name STRING, address STRING, text STRING VIRTUAL,
  messenger SERVICE, sent BOOLEAN VIRTUAL
) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
INSERT INTO contacts VALUES ("Alpha", "alpha@x", alert), ("Beta", "beta@x", alert);
REGISTER QUERY temps AS select[temperature < 1000.0](window[1](temperatures));
REGISTER QUERY alerts ON ERROR SKIP AS invoke[sendMessage](assign[text := "chaos"](contacts));
EOF

# run_cluster <dir> <kill-mode>
#   kill-mode "": control — nobody dies.
#   kill-mode "sigkill": a random peer is SIGKILLed mid-run.
# Prints the sorted union of the peers' outbox (address<TAB>text) lines.
run_cluster() {
	local dir="$1" kill_mode="$2"
	mkdir -p "$dir"
	local r1_pid r2_pid coord_pid

	"$WORK/pemsd" -node r1 -listen 127.0.0.1:0 -sensors 1 -messengers alert \
		-svc-prefix shared -outbox "$dir/outbox-r1" -lease "$LEASE" \
		>"$dir/r1.log" 2>&1 &
	r1_pid=$!
	echo "$r1_pid" >>"$PIDFILE"
	"$WORK/pemsd" -node r2 -listen 127.0.0.1:0 -sensors 1 -messengers alert \
		-svc-prefix shared -outbox "$dir/outbox-r2" -lease "$LEASE" \
		>"$dir/r2.log" 2>&1 &
	r2_pid=$!
	echo "$r2_pid" >>"$PIDFILE"
	wait_for "$dir/r1.log" "serena -connect"
	wait_for "$dir/r2.log" "serena -connect"
	local r1_addr r2_addr
	r1_addr="$(sed -n 's/.*serena -connect \([0-9.:]*\).*/\1/p' "$dir/r1.log" | head -1)"
	r2_addr="$(sed -n 's/.*serena -connect \([0-9.:]*\).*/\1/p' "$dir/r2.log" | head -1)"

	"$WORK/pemsd" -node coord -listen 127.0.0.1:0 -data-dir "$dir/coord" \
		-tick 100ms -join "$r1_addr,$r2_addr" -lease "$LEASE" \
		-poll temperatures=getTemperature -init "$WORK/chaos.ddl" \
		-debug 127.0.0.1:0 >"$dir/coord.log" 2>&1 &
	coord_pid=$!
	echo "$coord_pid" >>"$PIDFILE"
	wait_for "$dir/coord.log" "observability on"
	local debug_addr
	debug_addr="$(sed -n 's|.*observability on http://\([0-9.:]*\)/debug/serena.*|\1|p' "$dir/coord.log" | head -1)"

	# Both peers alive in the coordinator's membership, both alerts out.
	local i=0
	while [ "$(peer_state "$debug_addr" r1)" != "alive" ] ||
		[ "$(peer_state "$debug_addr" r2)" != "alive" ]; do
		i=$((i + 1))
		[ "$i" -ge 100 ] && fail "$dir: peers never both alive"
		sleep 0.1
	done
	i=0
	while [ "$(cat "$dir"/outbox-r* 2>/dev/null | wc -l)" -lt 2 ]; do
		i=$((i + 1))
		[ "$i" -ge 100 ] && fail "$dir: alerts never delivered"
		sleep 0.1
	done

	local victim="" victim_pid="" survivor=""
	if [ "$kill_mode" = "sigkill" ]; then
		if [ $((RANDOM % 2)) -eq 0 ]; then
			victim=r1 victim_pid=$r1_pid survivor=r2
		else
			victim=r2 victim_pid=$r2_pid survivor=r1
		fi
		echo "chaos:   SIGKILL $victim" >&2
		kill -9 "$victim_pid"
		# Masked down within ~one lease (generous 3x bound for slow CI).
		i=0
		while [ "$(peer_state "$debug_addr" "$victim")" != "down" ]; do
			i=$((i + 1))
			[ "$i" -ge 30 ] && fail "$dir: $victim not masked within 3 leases"
			sleep 0.1
		done
		echo "chaos:   $victim down after ~$((i * 100))ms" >&2
	fi

	# Post-kill life: the durable core must keep ticking (passive β now
	# failing over to the survivor) with zero tick errors.
	local ticks_before ticks_after
	ticks_before="$(curl -fsS "http://$debug_addr/metrics?format=prometheus" | sed -n 's/^serena_cq_ticks_total \([0-9]*\).*/\1/p')"
	sleep 1
	ticks_after="$(curl -fsS "http://$debug_addr/metrics?format=prometheus" | sed -n 's/^serena_cq_ticks_total \([0-9]*\).*/\1/p')"
	[ "${ticks_after:-0}" -gt "${ticks_before:-0}" ] || fail "$dir: coordinator stopped ticking"
	grep -q "tick failed" "$dir/coord.log" && fail "$dir: tick errors after ${kill_mode:-no} kill"

	# Satellite: a DRAINED peer says Bye — down immediately, not by lease.
	if [ "$kill_mode" = "sigkill" ]; then
		local survivor_pid=$r1_pid
		[ "$survivor" = "r2" ] && survivor_pid=$r2_pid
		kill -TERM "$survivor_pid"
		i=0
		while [ "$(peer_state "$debug_addr" "$survivor")" != "down" ]; do
			i=$((i + 1))
			[ "$i" -ge 30 ] && fail "$dir: drained $survivor not marked down"
			sleep 0.1
		done
		curl -fsS "http://$debug_addr/debug/peers" | grep -q '"reason": *"bye"' ||
			fail "$dir: drained peer not down by bye"
	fi

	kill -TERM "$coord_pid" 2>/dev/null || true
	wait "$coord_pid" 2>/dev/null || true
	kill -9 "$r1_pid" "$r2_pid" 2>/dev/null || true

	# The observable effect set: address<TAB>text of every delivery, both
	# replicas merged (column 1 is the instant — replica-dependent timing,
	# not part of Definition 8 equality).
	cat "$dir"/outbox-r* 2>/dev/null | cut -f2,3 | sort
}

echo "chaos: control run (never crashed)"
CONTROL="$(run_cluster "$WORK/control" "")"
[ -n "$CONTROL" ] || fail "control produced no deliveries"
DUP="$(printf '%s\n' "$CONTROL" | uniq -d)"
[ -z "$DUP" ] || fail "control delivered duplicates: $DUP"

for iter in $(seq 1 "$ITERS"); do
	echo "chaos: kill iteration $iter/$ITERS"
	CHAOS="$(run_cluster "$WORK/chaos-$iter" "sigkill")"
	if [ "$CHAOS" != "$CONTROL" ]; then
		fail "iteration $iter: deliveries diverged from control
---- control ----
$CONTROL
---- chaos ----
$CHAOS"
	fi
done

echo "chaos: PASS ($ITERS kill iteration(s); deliveries identical to control, victims masked within lease)"
