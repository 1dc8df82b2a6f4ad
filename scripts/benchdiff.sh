#!/usr/bin/env bash
# Benchmark-regression gate: measures the gated `go test` benchmarks on
# the base commit and on the working tree, on this machine, and hands
# both outputs to cmd/benchdiff, which fails on a >25% regression of
# the median ns/op or allocs/op, or on a gated benchmark missing at
# head.
#
#   make benchdiff               # base = HEAD
#   make benchdiff BASE=<rev>    # e.g. a PR's base commit
#
# Each side's test binaries are built once (the base from a detached
# `git worktree` checkout of BASE); then ROUNDS rounds run every binary
# once per side, flipping which side goes first each round so drift on
# the machine lands on both. The raw outputs are left in
# bench_base.txt and bench_head.txt, each headed by its `go version`.
#
# BENCH is the list of gated series. Removing a benchmark from the
# gate means removing it here; a benchmark new at head is reported and
# passes.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=${BASE:-HEAD}
ROUNDS=5
PKGS=(. internal/kb internal/registry)
BENCH='^Benchmark(FastRepairTuple|FastRepairTupleMemoHit|BRepairTuple|RepairTableParallel|CleanCSVStreamParallel|CleanCSVStreamZipf|EnsembleTuple4|CleanCSVStreamEnsemble|KBLoadText|KBLoadSnapshotV2|KBLoadMmap|KBReloadFull|KBApplyDeltaSmall|KBApplyDeltaLarge|TenantColdAdmission)$'

work=$(mktemp -d)
cleanup() {
  git worktree remove --force "$work/src" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

git worktree add --detach --quiet "$work/src" "$BASE"

# build SIDE SRCDIR: one test binary per package, named by index.
build() {
  mkdir -p "$work/$1"
  for i in "${!PKGS[@]}"; do
    (cd "$2/${PKGS[$i]}" && go test -c -o "$work/$1/$i.test" .)
  done
  (cd "$2" && go version) >"bench_$1.txt"
}

# measure SIDE SRCDIR: one sample of every gated series.
measure() {
  for i in "${!PKGS[@]}"; do
    (cd "$2/${PKGS[$i]}" && "$work/$1/$i.test" -test.run '^$' -test.bench "$BENCH" \
      -test.benchmem -test.count 1 -test.timeout 10m) >>"bench_$1.txt"
  done
}

build base "$work/src"
build head "$PWD"
for round in $(seq 1 "$ROUNDS"); do
  echo "benchdiff: round $round of $ROUNDS" >&2
  if [ $((round % 2)) -eq 1 ]; then
    measure base "$work/src"
    measure head "$PWD"
  else
    measure head "$PWD"
    measure base "$work/src"
  fi
done

go run ./cmd/benchdiff -base bench_base.txt -head bench_head.txt
