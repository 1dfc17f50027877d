#!/usr/bin/env bash
# Print the non-test Go line count of every package, in path order, then
# the total: the figure a simplicity PR quotes (`wc -l` over the *.go files
# git tracks or would track, minus *_test.go, so build output and ignored
# scratch never count). With a base ref — `scripts/loc.sh origin/main`,
# `make loc BASE=origin/main` — every line reads `before → after`, the
# before counted from `git show BASE:<file>`, so the PR log carries the
# delta. Run without one by `make loc`, last in `make ci`. benchmark/ is its
# own, frozen module and is left out.
set -euo pipefail
cd "$(dirname "$0")/.."
base="${1:-}"
if [ -n "$base" ] && ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
  echo "loc: unknown base ref $base" >&2
  exit 1
fi

{
  git ls-files -z --cached --others --exclude-standard -- '*.go' ':!:*_test.go' ':!:benchmark/**' |
    while IFS= read -r -d '' f; do
      [ -f "$f" ] || continue # deleted in the working tree, not yet staged
      printf 'after %s %s\n' "$(wc -l <"$f")" "$(dirname "$f")"
    done
  if [ -n "$base" ]; then
    git ls-tree -r -z --name-only "$base" |
      while IFS= read -r -d '' f; do
        case "$f" in *_test.go | benchmark/*) continue ;; *.go) ;; *) continue ;; esac
        printf 'before %s %s\n' "$(git show "$base:$f" | wc -l)" "$(dirname "$f")"
      done
  fi
} |
  awk -v base="$base" '
    { n[$1, $3] += $2; n[$1, "~total"] += $2; dirs[$3]; dirs["~total"] }
    END {
      for (d in dirs) {
        count = sprintf("%7d", n["after", d])
        if (base != "") count = sprintf("%7d → %s", n["before", d], count)
        printf "%s\t%s  %s\n", d, count, d # the leading copy is the sort key
      }
    }' |
  LC_ALL=C sort | cut -f2- | sed 's/~total$/total/'
