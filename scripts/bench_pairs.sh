#!/usr/bin/env bash
# Parent-versus-change measurement of one benchmark workload, by the
# protocol every performance claim in EXPERIMENTS.md follows
# (choosing-metrics guide, section 8):
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10]
#
#   1. <parent-ref> is exported (git archive) into .bench_build/pairs/parent
#      and THIS checkout's benchmark/ is laid over it, so both sides run
#      identical benchmark code against their own internals.
#   2. <pairs> pairs of runs on seeds 101, 102, ... (seeds no change is
#      developed on), BENCHMARK.json's run length, tracing off,
#      alternating which side runs first.
#   3. Per end-to-end metric: each side's median [q1, q3], the change of
#      the median, pairs won by the change (ties count for neither) and
#      the failed/attempted operations of either side, as the markdown
#      table EXPERIMENTS.md uses. A run whose output check fails aborts.
#
# A gain may be claimed when the change wins at least nine tenths of the
# pairs and the medians differ by more than the parent's q3 − q1.
# Everything written stays under .bench_build/ and benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

ref=${1:?usage: scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10]}
workload=${2:?usage: scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10]}
pairs=${3:-10}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

dir=.bench_build/pairs
parent=$dir/parent
rm -rf "$parent"
mkdir -p "$parent"
git archive "$(git rev-parse --verify "$ref^{commit}")" | tar -x -C "$parent"
rm -rf "$parent/benchmark"
tar -c --exclude=benchmark/out --exclude=benchmark/benchmark benchmark | tar -x -C "$parent"

# run <checkout> <seed>: the benchmark's result line (its last).
run() {
	(cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) | tail -n 1
}

out_parent=$dir/$workload.parent.jsonl
out_change=$dir/$workload.change.jsonl
: >"$out_parent"
: >"$out_change"
for ((i = 0; i < pairs; i++)); do
	seed=$((101 + i))
	if ((i % 2 == 0)); then
		run "$parent" "$seed" >>"$out_parent"
		run . "$seed" >>"$out_change"
	else
		run . "$seed" >>"$out_change"
		run "$parent" "$seed" >>"$out_parent"
	fi
	echo "pair $((i + 1))/$pairs (seed $seed) done" >&2
done

if [ "$(grep -c '"correct":true' "$out_parent")" != "$pairs" ] || [ "$(grep -c '"correct":true' "$out_change")" != "$pairs" ]; then
	echo "bench-pairs: a run crashed or failed its output check; result lines are in $dir/" >&2
	exit 1
fi

# field <file> <name>: one value per run. Metrics sit in
# "name":{"value":V,...}, counts in "name":N.
field() {
	sed -n "s/.*\"$2\":\({\"value\":\)\{0,1\}\([^,}]*\).*/\2/p" "$1"
}
# quartiles: "median [q1, q3]" of stdin, linear interpolation.
quartiles() {
	sort -g | awk '
		{ v[NR] = $1 }
		function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
		END { printf "%.4g [%.4g, %.4g]", q(0.5), q(0.25), q(0.75) }'
}
total() { field "$1" "$2" | awk '{ s += $1 } END { print s + 0 }'; }

failed="$(total "$out_parent" failed)/$(total "$out_parent" attempted), $(total "$out_change" failed)/$(total "$out_change" attempted)"
echo
echo "\`$workload\`, $pairs pairs, seeds 101–$((100 + pairs)), parent \`$(git rev-parse --short "$ref^{commit}")\`:"
echo
echo "| metric | parent median [q1, q3] | change median [q1, q3] | change | pairs won | failed (parent, change) |"
echo "|---|---|---|---:|---:|---|"
# The end-to-end metrics and their better direction, from BENCHMARK.json.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); print name, $2 }' BENCHMARK.json |
	while read -r name better; do
		p=$(field "$out_parent" "$name" | quartiles)
		c=$(field "$out_change" "$name" | quartiles)
		paste <(field "$out_parent" "$name") <(field "$out_change" "$name") |
			awk -v better="$better" -v name="$name" -v p="$p" -v c="$c" -v failed="$failed" '
				{ if (better == "lower" ? $2 < $1 : $2 > $1) won++ }
				END {
					split(p, pm, " "); split(c, cm, " ")
					printf "| `%s` | %s | %s | %+.1f %% | %d/%d | %s |\n", name, p, c, 100 * (cm[1] - pm[1]) / pm[1], won, NR, failed
				}'
	done
