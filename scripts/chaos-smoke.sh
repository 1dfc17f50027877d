#!/usr/bin/env bash
# Deterministic chaos smoke of the fault-tolerant scatter-gather path:
# boot three shard processes, put each behind a seeded faultproxy (one of
# them injecting 300ms of per-frame latency to provoke hedging), and run
# a coordinator over the proxies plus a single-node comparison server.
# Then (1) assert clustered NDJSON output is byte-identical to the
# single-node answer, (2) kill one shard mid-sweep (SIGUSR1 makes its
# proxy reset live connections and refuse new ones) and assert queries
# STILL succeed byte-identically while the breaker trips and
# pdb_cluster_failovers_total moves, (3) restore the shard (SIGUSR2) and
# watch the background probe re-admit it (breaker state back to closed),
# (4) assert the straggling shard provoked hedged dispatches, and (5)
# shut everything down cleanly. CI's `chaos` job runs exactly this script
# (via `make chaos-smoke`), so a local pass means a green job.
set -euo pipefail
cd "$(dirname "$0")/.."

shard1=127.0.0.1:19301
shard2=127.0.0.1:19302
shard3=127.0.0.1:19303
proxy1=127.0.0.1:19311
proxy2=127.0.0.1:19312
proxy3=127.0.0.1:19313
coord=127.0.0.1:19321
single=127.0.0.1:19322
tmp="$(mktemp -d)"
go build -o "$tmp/pdbserve" ./cmd/pdbserve
go build -o "$tmp/faultproxy" ./cmd/faultproxy

pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

echo "== boot three shards, three fault proxies, coordinator, single-node"
"$tmp/pdbserve" -shard -addr "$shard1" & pids+=($!)
"$tmp/pdbserve" -shard -addr "$shard2" & pids+=($!)
"$tmp/pdbserve" -shard -addr "$shard3" & pids+=($!)
sleep 0.5
"$tmp/faultproxy" -listen "$proxy1" -backend "$shard1" -seed 7 & pids+=($!)
"$tmp/faultproxy" -listen "$proxy2" -backend "$shard2" -seed 7 & pids+=($!)
proxy2_pid=$!
# The third shard is a permanent straggler: every frame through its proxy
# is delayed 300ms (seeded ±20% jitter), far past the 100ms hedge delay.
"$tmp/faultproxy" -listen "$proxy3" -backend "$shard3" -seed 7 \
  -fault "default=delay,latency=300ms" & pids+=($!)
sleep 0.5

# No RPC retries: a retry waits out a 100ms backoff, exactly the hedge
# delay, so whether the killed shard's dispatch fails over or is first
# covered by a hedge (which leaves pdb_cluster_failovers_total at 0) was a
# coin flip. Without retries the dispatch fails at once and always fails
# over.
"$tmp/pdbserve" -addr "$coord" -datadir examples/data \
  -coordinator -peers "$proxy1,$proxy2,$proxy3" \
  -cluster-retries 0 -breaker-threshold 1 -probe-interval 200ms \
  -hedge-after 100ms & pids+=($!)
coord_pid=$!
"$tmp/pdbserve" -addr "$single" -datadir examples/data & pids+=($!)

for a in "$coord" "$single"; do
  for _ in $(seq 1 50); do
    curl -sf "http://$a/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -sf "http://$a/healthz" | grep '"ok":true' >/dev/null
done

q() { # q SEED HOST -> row lines
  curl -sf -m 120 "http://$2/v1/query" \
    -d '{"program":"conf as P (project[room](join(select[temp >= 21](repairkey[sensor @ w](sensors)), rooms)));","seed":'"$1"'}' \
    | grep '"row"'
}

echo "== healthy cluster: rows byte-identical to single-node"
cl="$(q 7 "$coord")"
sn="$(q 7 "$single")"
echo "$cl"
[ -n "$cl" ]
[ "$cl" = "$sn" ]
curl -sf "http://$coord/readyz" | grep '"ready":true' >/dev/null

echo "== kill shard 2 (proxy resets + refuses): queries fail over, bits unchanged"
kill -USR1 "$proxy2_pid"
sleep 0.2
[ "$(q 23 "$coord")" = "$(q 23 "$single")" ]
metrics="$(curl -sf "http://$coord/metrics")"
grep -qE '^pdb_cluster_failovers_total [1-9]' <<<"$metrics"
grep -q "^pdb_cluster_shard_breaker_state{shard=\"$proxy2\"} 2$" <<<"$metrics"
grep -q "^pdb_cluster_shard_healthy{shard=\"$proxy2\"} 0$" <<<"$metrics"
# Two of three shards remain: degraded but ready. (/readyz counts open
# breakers, and the downed shard stays open while it is probed.)
curl -sf "http://$coord/readyz" | grep '"ready":true' >/dev/null
curl -sf "http://$coord/readyz" | grep '"degraded":true' >/dev/null

echo "== restore shard 2: the background probe re-admits it"
kill -USR2 "$proxy2_pid"
ok=""
for _ in $(seq 1 50); do
  if curl -sf "http://$coord/metrics" | grep "^pdb_cluster_shard_breaker_state{shard=\"$proxy2\"} 0$" >/dev/null; then
    ok=1; break
  fi
  sleep 0.2
done
[ -n "$ok" ]
curl -sf "http://$coord/metrics" | grep -E '^pdb_cluster_probes_total [1-9]' >/dev/null
[ "$(q 31 "$coord")" = "$(q 31 "$single")" ]
curl -sf "http://$coord/readyz" | grep '"ready":true' >/dev/null

echo "== the straggling shard provoked hedged dispatches"
curl -sf "http://$coord/metrics" | grep -E '^pdb_cluster_hedges_total [1-9]' >/dev/null

echo "== /v1/stats carries the failover accounting"
stats="$(curl -sf "http://$coord/v1/stats")"
grep -qE '"failovers":[1-9]' <<<"$stats"
grep -q '"breaker":"closed"' <<<"$stats"

echo "== graceful shutdown exits 0 everywhere"
kill -TERM "$coord_pid"
wait "$coord_pid"
for pid in "${pids[@]}"; do
  [ "$pid" = "$coord_pid" ] && continue
  kill -TERM "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
done
trap - EXIT
echo "chaos smoke OK"
