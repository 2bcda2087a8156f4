#!/usr/bin/env bash
# regen_experiments.sh — rerun every experiment and splice the fresh tables
# into EXPERIMENTS.md (part of `make regen`).
#
# EXPERIMENTS.md holds one fenced block per experiment whose first line is the
# table's own title ("D4 — failure-free overhead ..."); `go run
# ./cmd/experiments` prints the same tables, each ended by a blank line. The
# block bodies are replaced by id. A fenced block that runs `cmd/experiments
# sweep` and `... table` (the two sweeps at the end) is executed as written,
# its snapshot going to a scratch directory, and the markdown table below it
# replaced by what it prints.
# Everything else is left alone. The prose quotes numbers from the tables:
# read `git diff EXPERIMENTS.md` and fix what moved.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fresh=$tmp/experiments.txt
go run ./cmd/experiments "$@" > "$fresh"

# One line per sweep block: its commands joined with &&, snapshots in $tmp.
n=0
while IFS= read -r block; do
  n=$((n + 1))
  bash -c "$block" > "$tmp/sweep_$n.md"
done < <(sed -e ':a' -e '/\\$/N; s/\\\n/ /; ta' EXPERIMENTS.md |
  awk -v tmp="$tmp" '/^```/ { if (fenced && cmds ~ / table /) print cmds; fenced = !fenced; cmds = ""; next }
    fenced && /^go run \.\/cmd\/experiments (sweep|table) / { gsub(/BENCH_/, tmp "/BENCH_"); cmds = cmds (cmds == "" ? "" : " && ") $0 }')

awk -v fresh="$fresh" -v tmp="$tmp" '
function id_of(line) { return match(line, /^[ED][0-9]+ — /) ? substr(line, 1, index(line, " ") - 1) : "" }
BEGIN {
  while ((getline line < fresh) > 0) {
    if (id_of(line) != "") { cur = id_of(line); table[cur] = line; continue }
    if (line == "") cur = ""
    if (cur != "") table[cur] = table[cur] "\n" line
  }
}
/^```/ { fenced = !fenced; opening = fenced; replacing = 0; print; next }
opening { opening = 0; if (id_of($0) in table) { print table[id_of($0)]; replacing = 1 } }
fenced && /^go run \.\/cmd\/experiments table / { sweep++; pending = 1 }
!fenced && pending && /^\|/ {
  pending = 0; replacing = 1
  while ((getline line < (tmp "/sweep_" sweep ".md")) > 0) print line
}
!fenced && replacing && !/^\|/ { replacing = 0 }
!replacing { print }
' EXPERIMENTS.md > EXPERIMENTS.md.new
mv EXPERIMENTS.md.new EXPERIMENTS.md
echo "EXPERIMENTS.md: tables replaced; check the prose against 'git diff EXPERIMENTS.md'" >&2
