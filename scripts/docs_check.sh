#!/usr/bin/env bash
# Documentation check behind `make docs-check` (part of `make check`) and
# `make docs`:
#
#   scripts/docs_check.sh          check; list every fault and exit 1 on any
#   scripts/docs_check.sh -update  rewrite README.md's flag blocks
#
# The check fails on
#   - a DESIGN section (§3, §5, §A, …), a ROADMAP item or a quoted
#     EXPERIMENTS.md heading cited from a tracked Go source, script, the
#     Makefile or ci.yml that names no heading of DESIGN.md, no item of
#     ROADMAP.md, no heading of EXPERIMENTS.md (a citation may wrap over
#     comment lines; this script's own comments are not scanned);
#   - a Test/Fuzz/Benchmark name written in DESIGN.md with no func of that
#     name in a tracked _test.go (a name written with a trailing * is a
#     prefix);
#   - a README.md flag block that differs from its binary's -h output
#     without the "Usage of" line. A block sits between the lines
#     `<!-- flags NAME -->` and `<!-- /flags NAME -->`, in a ``` fence;
#     scripts/blocks.sh reads and fills it.
# CHANGES.md is not checked: its entries cite the documents of their day.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/blocks.sh

bins="fastdnaml fdworker fastdnamld"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Each binary's flag reference, fenced as the README holds it.
${GO:-go} build -o "$tmp/" $(printf './cmd/%s ' $bins)
for b in $bins; do
	{
		echo '```'
		"$tmp/$b" -h 2>&1 | tail -n +2
		echo '```'
	} >"$tmp/$b.flags"
done

if [ "${1:-}" = "-update" ]; then
	for b in $bins; do
		grep -qxF "<!-- flags $b -->" README.md || { echo "docs: README.md has no flags block for $b" >&2; exit 1; }
		fill_block README.md "<!-- flags $b -->" "<!-- /flags $b -->" "$tmp/$b.flags"
	done
	echo "docs: README.md flag blocks rewritten"
	exit 0
fi

faults=0
fault() {
	echo "docs-check: $*"
	faults=$((faults + 1))
}

for b in $bins; do
	if ! block README.md "<!-- flags $b -->" "<!-- /flags $b -->" | diff -u --label "README.md ($b)" --label "$b -h" - "$tmp/$b.flags"; then
		fault "README.md's $b flag block differs from its -h output (run make docs)"
	fi
done

# Citations, with comment markers stripped and lines joined, so a
# citation that wraps still reads as one.
git ls-files '*.go' 'scripts/*' Makefile .github/workflows/ci.yml | grep -vxF scripts/docs_check.sh >"$tmp/files"
while IFS= read -r f; do
	text=$(sed -E 's@^[[:space:]]*(//|#)[[:space:]]?@@' "$f" | tr '\n' ' ' | tr -s ' ')
	{ grep -oE 'DESIGN(\.md)? §[0-9A-Z]+[a-z]?' <<<"$text" || true; } | sed 's/.*§//' | sort -u | while IFS= read -r id; do
		grep -qE "^##+ $id\. " DESIGN.md || echo "$f cites DESIGN §$id, which DESIGN.md does not have"
	done
	{ grep -oE 'ROADMAP item [0-9]+' <<<"$text" || true; } | sed 's/.* //' | sort -u | while IFS= read -r n; do
		grep -qE "^$n\. \*\*" ROADMAP.md || echo "$f cites ROADMAP item $n, which ROADMAP.md does not have"
	done
	{ grep -oE 'EXPERIMENTS\.md "[^"]+"' <<<"$text" || true; } | sed -E 's/^[^"]*"(.*)"$/\1/' | sort -u | while IFS= read -r s; do
		grep '^#' EXPERIMENTS.md | grep -qiF -- "$s" || echo "$f cites EXPERIMENTS.md \"$s\", which is no heading there"
	done
done <"$tmp/files" >"$tmp/citations"
while IFS= read -r line; do
	fault "$line"
done <"$tmp/citations"

# Test names in DESIGN.md against the funcs of the tracked tests.
git ls-files '*_test.go' | xargs grep -hoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' | sed 's/^func //' | sort -u >"$tmp/funcs"
for name in $({ grep -oE '\b(Test|Fuzz|Benchmark)[A-Z0-9][A-Za-z0-9_]*\*?' DESIGN.md || true; } | sort -u); do
	case $name in
	*\*) grep -q "^${name%\*}" "$tmp/funcs" || fault "DESIGN.md names $name, and no test func starts so" ;;
	*) grep -qxF "$name" "$tmp/funcs" || fault "DESIGN.md names $name, which no _test.go defines" ;;
	esac
done

if [ "$faults" -gt 0 ]; then
	echo "docs-check: $faults fault(s)"
	exit 1
fi
echo "docs-check: ok"
