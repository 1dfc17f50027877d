#!/usr/bin/env bash
# Print the non-test Go line count of every package, in path order, then
# the total: the figure a simplicity PR quotes before → after (`wc -l` over
# the *.go files git tracks or would track, minus *_test.go, so build
# output and ignored scratch never count). Run by `make loc`, last in
# `make ci`, so every PR log carries the numbers. benchmark/ is its own,
# frozen module and is left out.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -z --cached --others --exclude-standard -- '*.go' ':!:*_test.go' ':!:benchmark/**' |
  while IFS= read -r -d '' f; do
    [ -f "$f" ] || continue # deleted in the working tree, not yet staged
    printf '%s %s\n' "$(wc -l <"$f")" "$(dirname "$f")"
  done |
  awk '{ lines[$2] += $1; total += $1 }
       END { for (d in lines) printf "%7d  %s\n", lines[d], d; printf "%7d  ~total\n", total }' |
  LC_ALL=C sort -k2 | sed 's/~total$/total/'
