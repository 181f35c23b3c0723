#!/usr/bin/env bash
# Builds simbench from source and runs it with the given
# arguments, from the repository root:
#
#   bash simbench/run.sh --workload fig5-mini --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files) stays in
# .bench_build/ under the working directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/simbench" ]]; then
	echo "simbench: run from the repository root (go.mod, internal/ and simbench/ not found in $root)" >&2
	exit 2
fi

build="$root/.bench_build/simbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/simbench" && go build -o "$build/simbench" .) >&2
exec "$build/simbench" "$@"
