#!/usr/bin/env bash
# Black-box smoke test of a distributed run over real processes.
#
# Builds fastdnaml and fdworker, starts a `-listen` master that waits for
# two workers on an OS-assigned port, joins two real fdworker processes,
# and compares the outcome with the serial program's — on a run the
# welcome has to describe in full: a non-default model (HKY85, kappa 3),
# per-site weights (some zero) and per-site rates.
#
#   1. Master and both workers exit 0.
#   2. The master's .best.tree is byte-identical to the serial run's.
#   3. The master's run report shows two workers, each with tasks served,
#      and no task evaluated inline.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

fail() {
	echo "tcp-smoke: FAIL: $*" >&2
	for f in master worker1 worker2; do
		[ -f "$work/$f.log" ] && sed "s/^/  $f: /" "$work/$f.log" >&2
	done
	exit 1
}

echo "== build"
# SMOKE_RACE=1 (set in CI) builds the binaries with the race detector.
go build ${SMOKE_RACE:+-race} -o "$work/bin/" ./cmd/fastdnaml ./cmd/fdworker ./cmd/simseq

echo "== serial reference run (HKY85, weights, rates)"
sites=200
"$work/bin/simseq" -taxa 12 -sites $sites -seed 11 -out "$work/aln.phy" 2>/dev/null
awk -v n=$sites 'BEGIN { for (i = 0; i < n; i++) print i % 3 }' >"$work/w.txt"
awk -v n=$sites 'BEGIN { for (i = 0; i < n; i++) print 0.25 + i % 4 }' >"$work/r.txt"
run=(-in "$work/aln.phy" -seed 5 -quiet -model HKY85 -kappa 3 -weights "$work/w.txt" -rates "$work/r.txt")
"$work/bin/fastdnaml" "${run[@]}" -out "$work/serial" >/dev/null || fail "serial run failed"

echo "== master + two fdworker processes"
"$work/bin/fastdnaml" "${run[@]}" -out "$work/tcp" -listen 127.0.0.1:0 -net-workers 2 \
	-bench-json "$work" >"$work/master.log" 2>&1 &
master_pid=$!
pids+=("$master_pid")
addr=
for _ in $(seq 1 100); do
	addr=$(sed -n 's/^listening on \([^;]*\);.*/\1/p' "$work/master.log")
	[ -n "$addr" ] && break
	kill -0 "$master_pid" 2>/dev/null || fail "master died on startup"
	sleep 0.1
done
[ -n "$addr" ] || fail "master never reported its address"
echo "   $addr"
worker_pids=()
for i in 1 2; do
	"$work/bin/fdworker" -connect "$addr" -reconnect off >"$work/worker$i.log" 2>&1 &
	worker_pids+=("$!")
	pids+=("$!")
done
wait "$master_pid" || fail "master exited non-zero"
for i in 0 1; do
	wait "${worker_pids[$i]}" || fail "worker $((i + 1)) exited non-zero"
done
pids=()

cmp "$work/serial.best.tree" "$work/tcp.best.tree" ||
	fail "distributed tree differs from the serial run:
  serial: $(cat "$work/serial.best.tree")
  tcp:    $(cat "$work/tcp.best.tree")"
echo "   tree matches the serial run"

# The run report lists each worker as { "rank": N, "tasks": M, ... }.
report=$(ls "$work"/BENCH_*.json)
served=$(awk '/"rank":/ { getline; gsub(/[^0-9]/, ""); print }' "$report")
[ "$(printf '%s\n' "$served" | grep -c '^[1-9]')" = 2 ] ||
	fail "want two workers with tasks served, report says: $(echo $served)"
grep -q '"inline": 0,' "$report" || fail "the master evaluated tasks inline"
echo "   tasks served per worker: $(echo $served)"

echo "tcp-smoke: PASS"
