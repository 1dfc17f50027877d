#!/usr/bin/env bash
# Alternated BASE / working-tree pairs of the end-to-end benchmark — the
# measurement a performance claim in CHANGES.md quotes. BASE (any git ref)
# is exported with `git archive` into a fresh directory under $TMPDIR
# (outside the checkout; removed on exit), and pair i runs
# `bash benchmark/run.sh -notrace -seed i` once in that copy and once in the
# working tree, alternating which side goes first. Per workload and
# end-to-end metric it then prints both medians, their ratio (working tree
# over BASE) and the metric's BENCHMARK.json bound, and exits 1 when a
# working-tree median is worse than BASE's by more than that bound, or when
# the working tree failed more ops. Arguments after PAIRS go to run.sh
# (e.g. `-workload sigma-strat -seconds 5` for a quick look).
#
#   scripts/bench-pairs.sh origin/main 10
#   make bench-pairs BASE=origin/main PAIRS=10
#
# Ten full pairs take about 45 minutes. run.sh builds from its checkout on
# every invocation: do not edit the tree or run tests while pairs run.
set -euo pipefail
cd "$(dirname "$0")/.."
base="${1:?usage: scripts/bench-pairs.sh BASE [PAIRS] [run.sh flags...]}"
pairs="${2:-10}"
shift $(($# < 2 ? $# : 2))
extra=("$@")
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
  echo "bench-pairs: unknown base ref $base" >&2
  exit 1
fi

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/results"
git archive "$base" | tar -x -C "$tmp/base"

# run DIR SIDE SEED: one benchmark run, its result.json kept as SIDE-SEED.
run() {
  local log="$tmp/results/$2-$3.log"
  echo "bench-pairs: pair $3/$pairs, $2" >&2
  if ! (cd "$1" && bash benchmark/run.sh -notrace -seed "$3" ${extra[@]+"${extra[@]}"}) >"$log" 2>&1; then
    echo "bench-pairs: $2 run with seed $3 failed:" >&2
    tail -n 20 "$log" >&2
    exit 1
  fi
  cp "$1/benchmark/out/result.json" "$tmp/results/$2-$3.json"
}
for i in $(seq 1 "$pairs"); do
  if ((i % 2)); then
    run "$tmp/base" base "$i"
    run . change "$i"
  else
    run . change "$i"
    run "$tmp/base" base "$i"
  fi
done

# median SIDE WORKLOAD FIELD: the median over the SIDE's runs of one
# workload's untraced FIELD (a jq path below .untraced).
median() {
  jq -r --arg w "$2" ".workloads[] | select(.name == \$w) | .untraced$3" "$tmp/results/$1"-*.json |
    sort -g | awk '{ v[NR] = $1 } END { if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}
status=0
printf '%-12s %-20s %12s %12s %7s %6s\n' workload metric base change ratio bound
for w in $(jq -r '.workloads[].name' "$tmp/results/change-1.json"); do
  while read -r metric better bound; do
    b="$(median base "$w" ".metrics.$metric")"
    c="$(median change "$w" ".metrics.$metric")"
    verdict="$(awk -v b="$b" -v c="$c" -v better="$better" -v bound="$bound" 'BEGIN {
      worse = (better == "lower") ? c > b * (1 + bound) : c < b * (1 - bound)
      printf "%.3f %s", (b == 0 ? 0 : c / b), (worse ? "WORSE" : "ok") }')"
    printf '%-12s %-20s %12.4f %12.4f %7s %6s %s\n' "$w" "$metric" "$b" "$c" "${verdict% *}" "$bound" "${verdict#* }"
    [[ "$verdict" == *WORSE ]] && status=1
  done < <(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' BENCHMARK.json)
  fb="$(median base "$w" .failed)" fc="$(median change "$w" .failed)"
  printf '%-12s %-20s %12s %12s\n' "$w" failed_ops "$fb" "$fc"
  awk -v b="$fb" -v c="$fc" 'BEGIN { exit !(c > b) }' && status=1
done
exit "$status"
