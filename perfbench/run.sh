#!/usr/bin/env bash
# Builds the loopback /clean benchmark from the sources of this checkout
# and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 6 --trace 0
#
# Build cache, binary and scratch files stay under .bench_build/ in the
# checkout. Exits non-zero, printing no result, when the repository
# sources are not next to the benchmark.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/server" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a detective checkout (repository sources not found)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --workdir "$out/work" --commit "$commit" "$@"
