#!/usr/bin/env bash
# Line budget: pin the repo's non-test Go line count (`make lines`, the
# number ROADMAP's "Say it with less" item states its target in) so it only
# moves on purpose.
#
# Rules enforced:
#   1. .lines-budget must equal `make lines` exactly — a change that deletes
#      lines lowers the budget in the same commit (a ratchet), and one that
#      adds lines raises it.
#   2. When LINES_BASE is set (CI passes the PR base or push-before SHA), a
#      count above the one recorded at that commit must come with a change
#      to CHANGES.md, which says what the lines bought.
set -euo pipefail
cd "$(dirname "$0")/.."

budget_file=.lines-budget
budget=$(tr -dc '0-9' < "$budget_file")
count=$(make --no-print-directory -s lines | tr -dc '0-9')
echo "non-test Go lines: $count (budget: $budget)"

if [ "$count" != "$budget" ]; then
    echo "error: $budget_file records $budget but make lines counts $count;" >&2
    echo "update $budget_file to $count in the same change (and CHANGES.md if the count grew)" >&2
    exit 1
fi

base="${LINES_BASE:-}"
if [ -z "$base" ] || ! git rev-parse -q --verify "$base^{commit}" >/dev/null 2>&1; then
    exit 0
fi
old=$(git show "$base:$budget_file" 2>/dev/null | tr -dc '0-9' || true)
if [ -n "$old" ] && [ "$count" -gt "$old" ]; then
    if git diff --name-only "$base" HEAD -- CHANGES.md | grep -q .; then
        echo "line count grew $old -> $count and CHANGES.md was updated: ok"
    else
        echo "error: line count grew $old -> $count without a CHANGES.md entry;" >&2
        echo "say what the new lines buy before raising the budget" >&2
        exit 1
    fi
fi
