#!/usr/bin/env bash
# behaviour_cmp.sh — is the working tree's simulated behaviour byte-identical
# to a parent commit's?
#
# A change that is meant to move no simulated byte (a refactor, a host-time
# optimisation) is proved by the same list of artifacts every time. This
# script produces that list on both trees and compares it file by file:
#
#   - the 12 timeline exports of `cmd/experiments -timeline DIR` (D11 and
#     D12 crash cells, every style, JSON and CSV): output release timing,
#     which no golden hash sees;
#   - the explorer reports: `cmd/explore` (n = 3), `-n 4 -points 400`, and
#     the two-crash sweep `-n 4 -max-crashes 2 -random 50`, with their
#     printed summaries;
#   - `cmd/fblsim -crash 10s:3,14.1s:5 -horizon 45s -outputs`: its printed
#     summary and its `-timeline` export, the run cmd/fblsim builds from
#     its flags;
#   - the same two crashes under `-style blocking`, sampled every 5 ms to a
#     20 s horizon: its summary and export, the only artifact whose phase
#     lanes hold B (a blocked live process);
#   - the tables of `cmd/experiments -only E1,E2,D2,...,D12` (D1, the scale
#     sweep, is left out for time); here and below, host-time figures
#     ("computed in", "wall") are dropped;
#   - the reference sweep on `make bench-seed`'s axes (the snapshot's
#     git_rev line dropped: it names the tree, not its behaviour).
#
#   scripts/behaviour_cmp.sh              # the tree against HEAD~, ≈ 1.5 min on 2 vCPU
#   scripts/behaviour_cmp.sh -p HEAD      # before the change is committed
#
#   -p ref      the parent commit; must come first (default: HEAD~)
#
# The change side is the working tree, uncommitted edits included; the
# parent side is a `git archive` extract in a temporary directory, as in
# scripts/perf_pair.sh. A command's exit status is recorded with its output,
# so a run that fails (an explorer violation, a failed invariant check) on one side
# only is a difference too.
#
# Exit: 0 when every artifact is byte-identical, 1 when any differs (each
# one named), 2 on usage or build errors.
set -euo pipefail
cd "$(dirname "$0")/.."

parent='HEAD~'
if [ "${1-}" = -p ]; then
  parent=$2
  shift 2
fi
if [ $# -gt 0 ]; then
  echo "usage: scripts/behaviour_cmp.sh [-p ref]" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

parent_rev=$(git rev-parse --short "$parent^{commit}") || exit 2
mkdir "$tmp/parent"
git archive "$parent_rev" | tar -x -C "$tmp/parent"

# status runs a command with its stdout into file $1 and appends its exit
# status, so a failing run is an artifact rather than the end of the script.
status() {
  local file=$1
  shift
  local rc=0
  "$@" >"$file" 2>&1 || rc=$?
  echo "exit $rc" >>"$file"
}

# artifacts SRC OUT builds the commands of the tree at SRC and writes every
# artifact under OUT. They run in OUT with relative paths, so no output
# names the side it was made on.
artifacts() {
  local src=$1 out=$2
  mkdir -p "$out/bin"
  (cd "$src" && go build -o "$out/bin/" ./cmd/experiments ./cmd/explore ./cmd/fblsim) || exit 2
  (
    cd "$out"
    status timeline.txt bin/experiments -timeline timeline
    status explore_n3.txt bin/explore -out explore_n3.json
    status explore_n4_points400.txt bin/explore -n 4 -points 400 -out explore_n4_points400.json
    status explore_n4_2crash.txt bin/explore -n 4 -max-crashes 2 -random 50 -out explore_n4_2crash.json
    status fblsim.txt bin/fblsim -crash 10s:3,14.1s:5 -horizon 45s -outputs -timeline fblsim_timeline.json
    status fblsim_blocking.txt bin/fblsim -style blocking -crash 10s:3,14.1s:5 -horizon 20s \
      -timeline-interval 5ms -timeline fblsim_blocking_timeline.json
    status tables.raw bin/experiments -only E1,E2,D2,D3,D4,D5,D6,D7,D8,D9,D10,D11,D12
    grep -v 'computed in' tables.raw >tables.txt
    status sweep.log bin/experiments sweep -label cmp -out sweep.raw \
      -seeds 1,2 -n 4 -f 1 -profiles 1995 -styles nonblocking,blocking
    sed -E 's/, [^,]* wall\)$/)/' sweep.log >sweep.txt
    grep -v '"git_rev"' sweep.raw >sweep.json || true
    rm -r bin tables.raw sweep.log sweep.raw
  )
}

echo "behaviour_cmp: parent $parent_rev"
artifacts "$tmp/parent" "$tmp/a"
echo "behaviour_cmp: working tree"
artifacts "$PWD" "$tmp/b"

files=$( (cd "$tmp/a" && find . -type f; cd "$tmp/b" && find . -type f) | sed 's|^\./||' | sort -u)
total=$(wc -l <<<"$files")
differ=0
for f in $files; do
  if ! cmp -s "$tmp/a/$f" "$tmp/b/$f"; then # a file missing on one side differs too
    echo "differs: $f"
    differ=$((differ + 1))
  fi
done

if [ "$differ" -gt 0 ]; then
  echo "behaviour_cmp: $differ of $total artifacts differ from $parent_rev"
  exit 1
fi
echo "behaviour_cmp: all $total artifacts byte-identical to $parent_rev"
