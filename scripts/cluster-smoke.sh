#!/usr/bin/env bash
# End-to-end smoke of horizontal sharding: build pdbserve, boot two shard
# processes and a coordinator over them plus a single-node comparison
# server, and assert (1) the coordinator's NDJSON query output is
# byte-identical to the single-node server's under one seed — the
# bit-identity contract across process boundaries — (2) the per-shard
# pdb_cluster_* metric series move, (3) killing a shard does NOT fail
# queries: the breaker trips, chunk ranges fail over to the survivor, and
# the rows stay byte-identical to the single-node answer, (4) killing the
# last shard yields a fast typed error (and /readyz goes 503) rather than
# a hang, (5) a SIGHUP quota reload takes effect without a restart, and
# (6) everything shuts down gracefully. CI's `cluster` job runs exactly
# this script (via `make cluster-smoke`), so a local pass means a green
# job. Deterministic fault shapes beyond a clean kill (resets, latency,
# truncated frames) live in scripts/chaos-smoke.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

shard1=127.0.0.1:19101
shard2=127.0.0.1:19102
coord=127.0.0.1:19103
single=127.0.0.1:19104
tmp="$(mktemp -d)"
bin="$tmp/pdbserve"
go build -o "$bin" ./cmd/pdbserve

pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

echo "== boot two shards, the coordinator, and a single-node comparison server"
"$bin" -shard -addr "$shard1" & pids+=($!)
shard1_pid=$!
"$bin" -shard -addr "$shard2" & pids+=($!)
shard2_pid=$!
sleep 0.5

# Initially the bursty tenant is unlimited; the file is tightened and
# reloaded via SIGHUP further down.
cat > "$tmp/quotas.conf" <<'EOF'
# cluster-smoke quotas
bursty =
EOF

"$bin" -addr "$coord" -datadir examples/data \
  -coordinator -peers "$shard1,$shard2" \
  -tenant-header X-Pdb-Tenant -quota-file "$tmp/quotas.conf" & pids+=($!)
coord_pid=$!
"$bin" -addr "$single" -datadir examples/data & pids+=($!)

for a in "$coord" "$single"; do
  for _ in $(seq 1 50); do
    curl -sf "http://$a/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -sf "http://$a/healthz" | grep '"ok":true' >/dev/null
done

req='{"program":"conf as P (project[room](join(select[temp >= 21](repairkey[sensor @ w](sensors)), rooms)));","seed":7}'

echo "== clustered rows are byte-identical to single-node rows"
cl="$(curl -sf "http://$coord/v1/query" -d "$req" | grep '"row"')"
sn="$(curl -sf "http://$single/v1/query" -d "$req" | grep '"row"')"
echo "$cl"
[ -n "$cl" ]
[ "$cl" = "$sn" ]

echo "== coordinator stats and metrics report per-shard activity"
stats="$(curl -sf "http://$coord/v1/stats")"
grep -q '"cluster"' <<<"$stats"
grep -q '"shards_total":2' <<<"$stats"
grep -qE '"batches":[1-9]' <<<"$stats"
metrics="$(curl -sf "http://$coord/metrics")"
grep -q '^# TYPE pdb_cluster_shard_rpcs_total counter$' <<<"$metrics"
grep -qE "^pdb_cluster_shard_rpcs_total\{shard=\"$shard1\"\} [1-9]" <<<"$metrics"
grep -qE "^pdb_cluster_shard_rpcs_total\{shard=\"$shard2\"\} [1-9]" <<<"$metrics"
grep -q "^pdb_cluster_shard_healthy{shard=\"$shard1\"} 1$" <<<"$metrics"
grep -qE '^pdb_cluster_batches_total [1-9]' <<<"$metrics"

echo "== SIGHUP quota reload tightens a tenant without a restart"
# Tighten the file, reload, then overdraw: the first sampling query is
# admitted (one overdraw allowed) and leaves the tenant in deep rate
# debt, so the next query is shed with 429 — all without a restart.
cat > "$tmp/quotas.conf" <<'EOF'
bursty = trials_per_sec:1, burst:1
EOF
kill -HUP "$coord_pid"
sleep 0.5
treq='{"program":"conf as P (project[room](join(select[temp >= 21](repairkey[sensor @ w](sensors)), rooms)));","seed":11}'
code="$(curl -s -o /dev/null -w '%{http_code}' -H 'X-Pdb-Tenant: bursty' "http://$coord/v1/query" -d "$treq")"
[ "$code" = "200" ]
code="$(curl -s -o /dev/null -w '%{http_code}' -H 'X-Pdb-Tenant: bursty' "http://$coord/v1/query" -d "$treq")"
[ "$code" = "429" ]
curl -sf "http://$coord/metrics" | grep -E '^pdb_quota_reloads_total\{outcome="ok"\} [1-9]' >/dev/null

echo "== killing a shard fails over: queries still succeed, bit-identically"
curl -sf "http://$coord/readyz" | grep '"ready":true' >/dev/null
kill "$shard2_pid"
wait "$shard2_pid" 2>/dev/null || true
# A fresh seed forces sampling (and with it shard RPCs); the victim's
# chunk ranges are re-dispatched to the survivor, so the rows match the
# single-node answer byte for byte.
freq='{"program":"conf as P (project[room](join(select[temp >= 21](repairkey[sensor @ w](sensors)), rooms)));","seed":23}'
fcl="$(curl -sf -m 120 "http://$coord/v1/query" -d "$freq" | grep '"row"')"
fsn="$(curl -sf "http://$single/v1/query" -d "$freq" | grep '"row"')"
echo "$fcl"
[ -n "$fcl" ]
[ "$fcl" = "$fsn" ]
metrics="$(curl -sf "http://$coord/metrics")"
grep -q "^pdb_cluster_shard_healthy{shard=\"$shard2\"} 0$" <<<"$metrics"
grep -qE "^pdb_cluster_shard_failures_total\{shard=\"$shard2\"\} [1-9]" <<<"$metrics"
grep -qE '^pdb_cluster_failovers_total [1-9]' <<<"$metrics"
# Degraded but serving: the node stays ready while one shard survives.
curl -sf "http://$coord/readyz" | grep '"ready":true' >/dev/null

echo "== warm queries (cached, no sampling) still succeed with a shard down"
out="$(curl -sf "http://$coord/v1/query" -d "$req")"
grep -q '"sampled_trials":0' <<<"$out"
[ "$(echo "$out" | grep '"row"')" = "$cl" ]

echo "== killing the last shard yields a fast typed error and a 503 readyz"
kill "$shard1_pid"
wait "$shard1_pid" 2>/dev/null || true
dreq='{"program":"conf as P (project[room](join(select[temp >= 21](repairkey[sensor @ w](sensors)), rooms)));","seed":31}'
body="$(curl -s -m 120 "http://$coord/v1/query" -d "$dreq")"
echo "$body"
grep -q '"kind":"internal"' <<<"$body"
grep -qE 'cluster shard|no healthy shard' <<<"$body"
# A breaker opens on its third consecutive exhausted-retry failure, and how
# the first failing query's re-dispatches split between the two dead shards
# is a race (it charges each 1 to 3 failures); two more failing queries
# charge every still-admitted shard at least one failure each.
for _ in 1 2; do curl -s -m 120 "http://$coord/v1/query" -d "$dreq" >/dev/null; done
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$coord/readyz")"
[ "$code" = "503" ]
# Liveness is about the process, not the cluster.
curl -sf "http://$coord/healthz" | grep '"ok":true' >/dev/null

echo "== graceful shutdown exits 0 everywhere"
kill -TERM "$coord_pid"
wait "$coord_pid"
for pid in "${pids[@]}"; do
  [ "$pid" = "$shard2_pid" ] && continue
  [ "$pid" = "$coord_pid" ] && continue
  kill -TERM "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
done
trap - EXIT
echo "cluster smoke OK"
