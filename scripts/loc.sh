#!/usr/bin/env bash
# Code-line count behind ROADMAP item 3's acceptance ("net-negative line
# count"), computed the same way every PR:
#
#   scripts/loc.sh [parent-ref]
#
# Non-test Go lines that are neither blank nor a // comment (the tree
# uses no /* */ blocks), per package tree, for internal/comm,
# internal/mlsearch, internal/serve, internal/core and cmd/. With a ref
# the same count is taken on that commit (git archive into
# .bench_build/loc/, like bench_pairs.sh) and the table gains the
# parent column and the delta. Output is markdown.
set -euo pipefail
cd "$(dirname "$0")/.."

trees="internal/comm internal/mlsearch internal/serve internal/core cmd"

# count <root> <tree>: code lines of the non-test .go files under it.
count() {
	find "$1/$2" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | grep -cvE '^[[:space:]]*(//.*)?$'
}

ref=${1:-}
if [ -n "$ref" ]; then
	parent=.bench_build/loc/parent
	rm -rf "$parent"
	mkdir -p "$parent"
	git archive "$(git rev-parse --verify "$ref^{commit}")" $trees | tar -x -C "$parent"
	echo "| package | parent \`$(git rev-parse --short "$ref^{commit}")\` | this checkout | delta |"
	echo "|---|---:|---:|---:|"
else
	echo "| package | code lines |"
	echo "|---|---:|"
fi

total=0
ptotal=0
for t in $trees; do
	c=$(count . "$t")
	total=$((total + c))
	if [ -n "$ref" ]; then
		p=$(count "$parent" "$t")
		ptotal=$((ptotal + p))
		printf '| `%s` | %d | %d | %+d |\n' "$t" "$p" "$c" $((c - p))
	else
		printf '| `%s` | %d |\n' "$t" "$c"
	fi
done
if [ -n "$ref" ]; then
	printf '| **total** | %d | %d | %+d |\n' "$ptotal" "$total" $((total - ptotal))
else
	printf '| **total** | %d |\n' "$total"
fi
