#!/usr/bin/env bash
# EXPERIMENTS.md's generated blocks, behind `make experiments-check` and
# `make experiments`:
#
#   scripts/experiments.sh          regenerate every block into a copy of
#                                   the document, print the diff and exit 1
#                                   on any difference
#   scripts/experiments.sh -update  rewrite the blocks in place
#
# A block sits between the lines `<!-- scaling ARGS -->` and
# `<!-- /scaling -->` and holds exactly what `go run ./cmd/scaling ARGS`
# prints on stdout; scripts/blocks.sh reads and fills it. Every block is
# deterministic; all of them take about 45 s on a 2-CPU host.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/blocks.sh

doc=EXPERIMENTS.md
close="<!-- /scaling -->"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

${GO:-go} build -o "$tmp/scaling" ./cmd/scaling
cp "$doc" "$tmp/doc.md"
grep -E '^<!-- scaling .* -->$' "$doc" | sort -u >"$tmp/markers" || {
	echo "experiments: $doc has no <!-- scaling ARGS --> block"
	exit 1
}
while IFS= read -r open; do
	args=${open#<!-- scaling }
	args=${args% -->}
	echo "experiments: scaling $args"
	if ! "$tmp/scaling" $args >"$tmp/block" 2>"$tmp/stderr"; then
		cat "$tmp/stderr"
		exit 1
	fi
	fill_block "$tmp/doc.md" "$open" "$close" "$tmp/block"
done <"$tmp/markers"

if [ "${1:-}" = "-update" ]; then
	cp "$tmp/doc.md" "$doc"
	echo "experiments: $doc blocks rewritten"
	exit 0
fi
if ! diff -u --label "$doc" --label "cmd/scaling output" "$doc" "$tmp/doc.md"; then
	echo "experiments-check: $doc's generated blocks differ from cmd/scaling's output (make experiments rewrites them; re-read the prose around them)"
	exit 1
fi
echo "experiments-check: ok, $(wc -l <"$tmp/markers") blocks"
