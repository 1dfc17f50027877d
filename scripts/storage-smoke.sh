#!/usr/bin/env bash
# End-to-end smoke of the pdbstore storage layer: convert the examples/
# CSV data to pdbstore with `pdbcli convert`, assert the CSV ↔ pdbstore
# round trip is byte-stable, require bit-identical query output from
# pdbcli on both formats, exercise out-of-core execution (-max-memory
# plus -spill-dir completes where -max-memory alone aborts, with
# identical rows), and boot pdbserve -format pdbstore to byte-compare
# its NDJSON rows against the CSV-backed server. CI's `storage` job runs
# exactly this script (via `make storage-smoke`).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cli="$tmp/pdbcli"
srv="$tmp/pdbserve"
go build -o "$cli" ./cmd/pdbcli
go build -o "$srv" ./cmd/pdbserve

echo "== convert examples/data to pdbstore"
data="$tmp/data"
mkdir "$data"
for f in examples/data/*.csv; do
  name="$(basename "$f" .csv)"
  "$cli" convert "$f" "$data/$name.pdbs"
  [ "$(head -c 8 "$data/$name.pdbs")" = "PDBSTOR1" ]
done

echo "== CSV -> pdbstore -> CSV -> pdbstore is byte-stable"
"$cli" convert "$data/sensors.pdbs" "$tmp/sensors-rt.csv"
"$cli" convert "$tmp/sensors-rt.csv" "$tmp/sensors-rt.pdbs"
cmp "$data/sensors.pdbs" "$tmp/sensors-rt.pdbs"

query='conf as P (project[sensor](select[temp >= 21](repairkey[sensor @ w](sensors))));'

echo "== pdbcli output is bit-identical across formats"
"$cli" -rel sensors=examples/data/sensors.csv -query "$query" > "$tmp/out-csv.txt"
"$cli" -rel sensors="$data/sensors.pdbs" -query "$query" > "$tmp/out-store.txt"
cmp "$tmp/out-csv.txt" "$tmp/out-store.txt"
grep -q 's1' "$tmp/out-csv.txt"

echo "== -format pdbstore rejects a CSV source"
if "$cli" -format pdbstore -rel sensors=examples/data/sensors.csv \
    -query "$query" >/dev/null 2>&1; then
  echo "expected -format pdbstore to reject a CSV file"; exit 1
fi

echo "== an over-budget join aborts without a spill dir..."
joinq='project[sensor, room](union(join(sensors, rooms), join(sensors, rooms)));'
rels=(-rel sensors=examples/data/sensors.csv -rel rooms=examples/data/rooms.csv)
"$cli" "${rels[@]}" -query "$joinq" > "$tmp/join-free.txt"
if "$cli" "${rels[@]}" -max-memory 300 -query "$joinq" > /dev/null 2> "$tmp/limit-err.txt"; then
  echo "expected a memory limit error"; exit 1
fi
grep -q 'memory limit exceeded' "$tmp/limit-err.txt"

echo "== ...and completes bit-identically with one"
"$cli" "${rels[@]}" -max-memory 300 -spill-dir "$tmp" -query "$joinq" > "$tmp/join-spill.txt"
cmp "$tmp/join-free.txt" "$tmp/join-spill.txt"

echo "== pdbserve -format pdbstore serves rows byte-identical to CSV mode"
req='{"program":"conf as P (project[room](join(select[temp >= 21](repairkey[sensor @ w](sensors)), rooms)));","seed":7}'
serve_rows() { # serve_rows <datadir> <format> <addr> <out>
  "$srv" -addr "$3" -datadir "$1" -format "$2" &
  local pid=$!
  for _ in $(seq 1 50); do
    curl -sf "http://$3/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -sf "http://$3/v1/query" -d "$req" | grep '"row"' > "$4"
  kill "$pid"
  wait "$pid" 2>/dev/null || true
}
serve_rows examples/data csv 127.0.0.1:18098 "$tmp/rows-csv.txt"
serve_rows "$data" pdbstore 127.0.0.1:18099 "$tmp/rows-store.txt"
[ -s "$tmp/rows-csv.txt" ]
cmp "$tmp/rows-csv.txt" "$tmp/rows-store.txt"

echo "storage smoke OK"
