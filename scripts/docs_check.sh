#!/usr/bin/env bash
# docs_check.sh — docs-consistency gate (CI: docs-consistency job).
#
# The user-facing docs name make targets, CLI flags, and experiment ids.
# Those names rot silently: a renamed flag breaks every copy-pasted
# command in README.md without failing a single test. This script greps
# the docs for such references and fails when one no longer exists in
# the tree.
#
# Checks:
#   1. `make <target>` mentioned in docs  → target exists in Makefile
#   2. `-flag` on a cmd/<tool> invocation → tool declares the flag
#   3. `-only <IDs>` for cmd/experiments  → id is in the registry
#   4. -families/-styles values for cmd/explore → name is in the registry
#   5. every CHANGES.md entry from PR 32 on   → at most 2000 bytes
#   6. DESIGN.md's byte count                → equals .design-budget, and
#      growth over DOCS_BASE (CI: the PR base or push-before SHA) comes
#      with a CHANGES.md change, as scripts/lines_budget.sh rules `make lines`
#   7. `cmd/experiments <word>` in docs      → word is a subcommand main
#      dispatches (a retired one would otherwise run every table)
#
# Exit: 0 clean, 1 findings. Best-effort by design — it only sees
# references it can attribute to a tool on the same (joined) line.
set -euo pipefail
cd "$(dirname "$0")/.."

DOCS="README.md DESIGN.md EXPERIMENTS.md"
fail=0

# Join backslash-continued lines so multi-line fenced commands read as one.
joined() {
  sed -e ':a' -e '/\\$/N; s/\\\n/ /; ta' "$@"
}

# 1. make targets: backtick-quoted (`make x`) or at the start of a
# command line in a fenced block — prose like "make the tables" is not a
# reference.
for t in $( (grep -ohE '`make [a-z][a-z0-9-]*`' $DOCS | tr -d '`';
             grep -ohE '^\s*make [a-z][a-z0-9-]*\s*$' $DOCS) | awk '{print $2}' | sort -u); do
  if ! grep -qE "^$t:" Makefile; then
    echo "docs_check: 'make $t' referenced in docs but Makefile has no target '$t'" >&2
    fail=1
  fi
done

# 2. flags on cmd/<tool> invocations. A flag counts as declared when any
# file under cmd/<tool>/ registers its name with the flag package — or
# internal/profile does (-cpuprofile/-memprofile) and the tool imports it.
while read -r line; do
  tool=$(grep -oE 'cmd/[a-z]+' <<<"$line" | head -1 | cut -d/ -f2)
  [ -d "cmd/$tool" ] || continue
  dirs="cmd/$tool/"
  if grep -rq '"rollrec/internal/profile"' "cmd/$tool/"; then dirs="$dirs internal/profile/"; fi
  for f in $(grep -oE ' -[a-z][a-z0-9-]*' <<<"$line" | sed 's/^ -//' | sort -u); do
    if ! grep -rqE "\.(Bool|Int|Int64|String|Float64|Duration)(Var)?\((&[a-z.]+, )?\"$f\"" $dirs; then
      echo "docs_check: flag -$f used with cmd/$tool in docs but cmd/$tool declares no such flag" >&2
      fail=1
    fi
  done
done < <(joined $DOCS | grep -E 'cmd/[a-z]+ .*-[a-z]' | grep -vE '^\s*(//|#)')

# 3. experiment ids passed to cmd/experiments -only.
registry_ids=$(grep -oE '\{"[ED][0-9]+"' internal/experiments/sweeps.go | tr -d '{"')
for id in $(joined $DOCS | grep -oE '\-only [ED][0-9]+(,[ED][0-9]+)*' | sed 's/-only //' | tr ',' '\n' | sort -u); do
  if ! grep -qx "$id" <<<"$registry_ids"; then
    echo "docs_check: experiment id '$id' referenced in docs but absent from experiments.Registry" >&2
    fail=1
  fi
done

# 4. family and style names passed to cmd/explore. The family registry is
# internal/cluster's Family constants (internal/explore aliases them); the
# styles are recovery.Style's String() names. "all" is the CLI's wildcard.
family_names=$(grep -oE 'Family = "[a-z]+"' internal/cluster/family.go | grep -oE '"[a-z]+"' | tr -d '"')
style_names=$(grep -oE 'return "[a-z]+"' internal/recovery/recovery.go | grep -oE '"[a-z]+"' | tr -d '"')
for fam in $(joined $DOCS | grep -oE 'cmd/explore .*' | grep -oE '\-families [a-z]+(,[a-z]+)*' | sed 's/-families //' | tr ',' '\n' | sort -u); do
  [ "$fam" = all ] && continue
  if ! grep -qx "$fam" <<<"$family_names"; then
    echo "docs_check: family '$fam' passed to cmd/explore in docs but absent from internal/cluster" >&2
    fail=1
  fi
done
for sty in $(joined $DOCS | grep -oE 'cmd/explore .*' | grep -oE '\-styles [a-z]+(,[a-z]+)*' | sed 's/-styles //' | tr ',' '\n' | sort -u); do
  [ "$sty" = all ] && continue
  if ! grep -qx "$sty" <<<"$style_names"; then
    echo "docs_check: style '$sty' passed to cmd/explore in docs but absent from internal/recovery" >&2
    fail=1
  fi
done

# 5. CHANGES.md entry size. An entry is its "- PR <n>:" line plus the
# indented lines under it, newlines included; any line starting "- " ends
# it. Entries before PR 32 are exempt until they are compacted.
while read -r id bytes; do
  if [ "$id" -ge 32 ] && [ "$bytes" -gt 2000 ]; then
    echo "docs_check: CHANGES.md entry for PR $id is $bytes bytes, over the 2000-byte cap" >&2
    fail=1
  fi
done < <(LC_ALL=C awk '
  /^- / { if (id != "") print id, n; id = ""; n = 0; if ($0 ~ /^- PR [0-9]+:/) id = $3 + 0 }
  id != "" { n += length($0) + 1 }
  END { if (id != "") print id, n }' CHANGES.md)

# 6. DESIGN.md size, ratcheted like the line count: .design-budget must
# equal the byte count (a change that cuts DESIGN.md lowers it, one that
# grows it raises it), and growth over DOCS_BASE must come with a change
# to CHANGES.md that says what the new text buys.
design=$(wc -c < DESIGN.md | tr -dc '0-9')
design_budget=$(tr -dc '0-9' < .design-budget)
if [ "$design" != "$design_budget" ]; then
  echo "docs_check: .design-budget records $design_budget B but DESIGN.md is $design B; update it in the same change" >&2
  fail=1
fi
base="${DOCS_BASE:-}"
if [ -n "$base" ] && git rev-parse -q --verify "$base^{commit}" >/dev/null 2>&1; then
  old=$(git show "$base:.design-budget" 2>/dev/null | tr -dc '0-9' || true)
  [ -n "$old" ] || old=$(git show "$base:DESIGN.md" | wc -c | tr -dc '0-9')
  if [ "$design" -gt "$old" ] && ! git diff --name-only "$base" HEAD -- CHANGES.md | grep -q .; then
    echo "docs_check: DESIGN.md grew $old -> $design B without a CHANGES.md entry" >&2
    fail=1
  fi
fi

# 7. subcommands of cmd/experiments. A word right after the tool that is
# not a flag must be a case main dispatches on; anything else is a stray
# argument the command refuses.
subcommands=$(grep -oE '^\s*case "[a-z]+":' cmd/experiments/main.go | grep -oE '"[a-z]+"' | tr -d '"')
for sub in $(joined $DOCS | grep -oE 'cmd/experiments +[a-z][a-z0-9-]*' | awk '{print $2}' | sort -u); do
  if ! grep -qx "$sub" <<<"$subcommands"; then
    echo "docs_check: 'cmd/experiments $sub' in docs but cmd/experiments dispatches no subcommand '$sub'" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "docs_check: ok (targets, flags, experiment ids, subcommands all resolve; CHANGES.md entries within their cap; DESIGN.md within .design-budget)"
