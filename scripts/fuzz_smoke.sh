#!/usr/bin/env bash
# Fuzz smoke: a few seconds of native Go fuzzing of every Fuzz* target in
# the module — the parsers of what a peer or a file may hand the program.
#
#   scripts/fuzz_smoke.sh [total-seconds=10]
#
# go test -fuzz takes one target of one package per run, so the budget is
# split evenly over the targets found (at least 1 s each). The committed
# corpora alone already run as part of `go test ./...`; a finding lands in
# the package's testdata/fuzz/.
set -euo pipefail
cd "$(dirname "$0")/.."

budget=${1:-10}
mapfile -t targets < <(grep -rE --include='*_test.go' -o '^func Fuzz[A-Za-z0-9_]*' cmd internal | sort)
if [ ${#targets[@]} -eq 0 ]; then
	echo "fuzz-smoke: no Fuzz* target found" >&2
	exit 1
fi
each=$((budget / ${#targets[@]}))
[ "$each" -ge 1 ] || each=1
for t in "${targets[@]}"; do
	pkg=./$(dirname "${t%%:*}")
	name=${t##*func }
	echo "fuzz-smoke: $name in $pkg for ${each}s"
	${GO:-go} test -run XXX -fuzz "^${name}\$" -fuzztime "${each}s" "$pkg"
done
