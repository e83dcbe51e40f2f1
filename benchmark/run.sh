#!/usr/bin/env bash
# Builds the benchmark and runs it with the caller's arguments.
#
# The benchmark driver requires a compiled benchmark to be a package of
# its own, with its own build file, inside the benchmark's directory:
# hence go.mod here, whose replace line lets it import the parent
# module's internal packages. The driver also forbids reading or writing
# outside the checkout, so the binary, the Go build cache, the compiler's
# temporary files, GOPATH and the toolchain's telemetry directory
# (XDG_CONFIG_HOME) all live under .bench_build/ at the root of the
# checkout, and traces and reports under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/fdmlbench" .)
exec "$build/fdmlbench" -out "$here/out" "$@"
