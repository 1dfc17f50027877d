#!/usr/bin/env bash
# Alternated BASE / working-tree pairs of the end-to-end benchmark — the
# measurement a performance claim in CHANGES.md quotes. BASE (any git ref)
# is exported with `git archive` into a fresh directory under $TMPDIR
# (outside the checkout; removed when the script succeeds — on any failure,
# a failed run, a failed summary or a worse median, each pair's result.json
# and log stay in its results/ directory, which is printed), and pair i runs
# `bash benchmark/run.sh -notrace -seed i` once in that copy and once in the
# working tree, alternating which side goes first. Per workload and
# end-to-end metric it then prints both medians, their ratio (working tree
# over BASE), the metric's BENCHMARK.json bound and how many pairs the
# working tree won, each median with its quartiles [q1, q3]; it exits 1 when a
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
cleanup() {
  local status=$?
  if ((status == 0)); then
    rm -rf "$tmp"
  else
    rm -rf "$tmp/base"
    echo "bench-pairs: results kept in $tmp/results" >&2
  fi
}
trap cleanup EXIT
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

# isnum VALUE: whether VALUE is one decimal number.
isnum() { [[ "$1" =~ ^[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?$ ]]; }
# values SIDE WORKLOAD FIELD: the SIDE's runs of one workload's untraced
# FIELD (a jq path below .untraced), one per line in pair order. It fails,
# naming the file and field, when jq fails or prints anything but a number.
values() {
  local f v
  for i in $(seq 1 "$pairs"); do
    f="$tmp/results/$1-$i.json"
    if ! v="$(jq -r --arg w "$2" ".workloads[] | select(.name == \$w) | .untraced$3" "$f")" || ! isnum "$v"; then
      echo "bench-pairs: $f: $2 .untraced$3 is not a number: ${v:-jq failed}" >&2
      return 1
    fi
    echo "$v"
  done
}
# stats WHAT: the median, first and third quartile of the numbers on stdin
# (linear interpolation between order statistics); it fails, naming WHAT,
# when one of them is not a number.
stats() {
  local out m q1 q3
  out="$(sort -g | awk '{ v[NR] = $1 }
    function q(p,  h, l) { h = 1 + (NR - 1) * p; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
    END { printf "%s %s %s\n", q(0.5), q(0.25), q(0.75) }')"
  read -r m q1 q3 <<<"$out"
  if ! isnum "$m" || ! isnum "$q1" || ! isnum "$q3"; then
    echo "bench-pairs: $1: median and quartiles '$out' are not numbers" >&2
    return 1
  fi
  echo "$out"
}
# Every jq and stats result is taken by an assignment, so a failure ends
# the script (set -e) instead of reaching the verdict.
names="$(jq -r '.workloads[].name' "$tmp/results/change-1.json")" ||
  { echo "bench-pairs: $tmp/results/change-1.json: .workloads[].name unreadable" >&2; exit 1; }
metrics="$(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' BENCHMARK.json)" ||
  { echo "bench-pairs: BENCHMARK.json: .end_to_end unreadable" >&2; exit 1; }
status=0
printf '%-12s %-20s %12s %-25s %12s %-25s %7s %6s %4s\n' workload metric base '[q1, q3]' change '[q1, q3]' ratio bound won
for w in $names; do
  while read -r metric better bound; do
    bv="$(values base "$w" ".metrics.$metric")"
    cv="$(values change "$w" ".metrics.$metric")"
    bs="$(stats "base $w $metric" <<<"$bv")"
    cs="$(stats "change $w $metric" <<<"$cv")"
    read -r b bq1 bq3 <<<"$bs"
    read -r c cq1 cq3 <<<"$cs"
    # won: pairs whose change run is strictly better than its base run.
    won="$(paste <(echo "$bv") <(echo "$cv") |
      awk -v better="$better" '{ if (better == "lower" ? $2 < $1 : $2 > $1) n++ } END { print n + 0 }')"
    verdict="$(awk -v b="$b" -v c="$c" -v better="$better" -v bound="$bound" 'BEGIN {
      worse = (better == "lower") ? c > b * (1 + bound) : c < b * (1 - bound)
      printf "%.3f %s", (b == 0 ? 0 : c / b), (worse ? "WORSE" : "ok") }')"
    printf '%-12s %-20s %12.4f [%10.4f, %10.4f] %12.4f [%10.4f, %10.4f] %7s %6s %2s/%s %s\n' \
      "$w" "$metric" "$b" "$bq1" "$bq3" "$c" "$cq1" "$cq3" "${verdict% *}" "$bound" "$won" "$pairs" "${verdict#* }"
    [[ "$verdict" == *WORSE ]] && status=1
  done <<<"$metrics"
  fbv="$(values base "$w" .failed)"
  fcv="$(values change "$w" .failed)"
  fbs="$(stats "base $w failed" <<<"$fbv")"
  fcs="$(stats "change $w failed" <<<"$fcv")"
  fb="${fbs%% *}" fc="${fcs%% *}"
  printf '%-12s %-20s %12s %-25s %12s\n' "$w" failed_ops "$fb" "" "$fc"
  awk -v b="$fb" -v c="$fc" 'BEGIN { exit !(c > b) }' && status=1
done
exit "$status"
