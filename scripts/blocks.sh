# Generated blocks: the lines between an opening marker line and the next
# closing marker line of a document are a program's output. Sourced by
# docs_check.sh (README.md's flag blocks) and experiments.sh
# (EXPERIMENTS.md's cmd/scaling blocks).

# block FILE OPEN CLOSE: print the lines between the line OPEN and the
# next line CLOSE.
block() {
	awk -v o="$2" -v c="$3" 'p && $0 == c { p = 0 } p { print } $0 == o { p = 1 }' "$1"
}

# fill_block FILE OPEN CLOSE NEW: replace those lines with the contents of
# the file NEW. An OPEN line with no CLOSE after it is an error.
fill_block() {
	local out
	out=$(mktemp)
	if ! awk -v o="$2" -v c="$3" -v f="$4" '
		skip && $0 == c { while ((getline l < f) > 0) print l; close(f); skip = 0 }
		!skip { print }
		$0 == o { skip = 1 }
		END { exit skip }' "$1" >"$out"; then
		rm -f "$out"
		echo "$1: no line $3 after $2" >&2
		return 1
	fi
	cat "$out" >"$1"
	rm -f "$out"
}
