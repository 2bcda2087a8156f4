#!/usr/bin/env bash
# perf_pair.sh — the results ledger for the host-time benchmark (ROADMAP 4e).
#
# benchmark/ and BENCHMARK.json declare what is measured and within which
# bounds, and commit no results. This script produces the missing half: it
# extracts the parent commit next to the working tree, runs every workload
# of BENCHMARK.json on both in alternating pairs (same seed within a pair,
# a different seed per pair), and writes PERF_<label>.json at the repository
# root: every run, medians and quartiles per side, the pair-wise win count,
# sim_digest equality and an environment stamp. One such file is committed
# per performance PR, so the trajectory is data rather than CHANGES.md prose.
#
#   scripts/perf_pair.sh -l 17            # 10 pairs x 4 workloads x 2 sides, ~35 min
#   scripts/perf_pair.sh -l ci -n 2 -w    # CI: warn mode, 2 pairs
#   scripts/perf_pair.sh -p HEAD -l 17    # before the change is committed
#   scripts/perf_pair.sh -l 21 -behaviour-change traffic_n8_crash,explore_n4_sweep
#   scripts/perf_pair.sh -l 22 -claim fanout_n256_sharded/alloc_mb
#
#   -p ref      the parent commit; must come first     (default: HEAD~)
#   -l -n -w    label, pairs, warn mode: passed to cmd/perfpair (see its -h)
#   -behaviour-change a,b
#               the workloads whose simulated behaviour the change moves on
#               purpose (also passed through, and written into the stamp):
#               their sim_digest must differ from the parent's, every other
#               workload's must not
#   -claim workload/metric
#               the cell the change claims a gain on (passed through, written
#               into the stamp): unless it reads "improved" — nine of ten pairs
#               won, medians apart by more than the parent's IQR, ten pairs at
#               least — the exit is 1, -w or not
#
# The run length and the workloads are BENCHMARK.json's, always: a ledger is
# only comparable with the next one if both ran what the manifest declares.
#
# The change side is the working tree, uncommitted edits included, so a PR
# can be measured before it is committed. What ties the numbers to a tree is
# the stamp's change_src: `git write-tree` over the Go sources (*.go, go.mod)
# of the working tree, everything the benchmark compiles. To check a ledger
# against a checkout, run the src_tree line below in it.
# The parent side is a `git archive` extract in a temporary directory, not a
# worktree: the benchmark builds from plain files and nothing is left behind.
#
# Exit: 0 clean (or -w), 1 when a (metric, workload) median is outside its
# BENCHMARK.json bound, an undeclared workload's sim_digest differs or a
# declared one's does not, the failed-op share rose, or (also under -w) the
# claimed cell did not improve; 2 on usage or benchmark errors. The judging lives in cmd/perfpair.
set -euo pipefail
cd "$(dirname "$0")/.."

parent='HEAD~'
if [ "${1-}" = -p ]; then
  parent=$2
  shift 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

parent_rev=$(git rev-parse --short "$parent^{commit}")
change_rev=$(git rev-parse --short HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
  change_rev="$change_rev+dirty"
fi
src_tree=$(export GIT_INDEX_FILE="$tmp/index"; git add -A -- '*.go' '*go.mod' && git write-tree)

mkdir "$tmp/parent"
git archive "$parent_rev" | tar -x -C "$tmp/parent"

go build -o "$tmp/perfpair" ./cmd/perfpair # not `go run`: it flattens exit codes to 1
"$tmp/perfpair" -parent "$tmp/parent" "$@" \
  -stamp "parent=$parent_rev,change=$change_rev,change_src=$src_tree,date=$(date -u +%Y-%m-%dT%H:%MZ)"
