#!/usr/bin/env bash
# End-to-end smoke of the pdbserve query service: build the binary, boot
# it against the examples/ CSV data with tenant quotas configured, drive
# it with curl — JSON rows, a stats trailer, cross-request
# estimator-cache reuse, a conf answered from the sub-plan memo, the
# /metrics exposition, an over-quota tenant's
# 429 + Retry-After, the typed limit error — and assert a graceful
# SIGTERM shutdown exits 0. CI's `service` job runs exactly this script
# (via `make service-smoke`), so a local pass means a green job.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:18097
bin="$(mktemp -d)/pdbserve"
go build -o "$bin" ./cmd/pdbserve

# Tenant scoping on (header X-Pdb-Tenant), one deliberately tiny quota
# for the 429 assertion; untenanted requests fall back to the unlimited
# default quota, so the protocol assertions below are unaffected.
"$bin" -addr "$addr" -datadir examples/data \
  -tenant-header X-Pdb-Tenant \
  -tenant bursty=trials_per_sec:1,burst:1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

# Wait for the listener.
for _ in $(seq 1 50); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$addr/healthz" | grep '"ok":true' >/dev/null

req='{"program":"conf as P (project[room](join(select[temp >= 21](repairkey[sensor @ w](sensors)), rooms)));","seed":7}'

echo "== cold query"
out1="$(curl -sf "http://$addr/v1/query" -d "$req")"
echo "$out1"
echo "$out1" | grep -q '"columns":\["room","P"\]'
echo "$out1" | grep -q '"row":{.*"room":"lab"'
echo "$out1" | grep -q '"stats":{'
echo "$out1" | grep -qE '"sampled_trials":[1-9]'

echo "== warm query (content-keyed cache must replay, sampling nothing)"
out2="$(curl -sf "http://$addr/v1/query" -d "$req")"
echo "$out2"
echo "$out2" | grep -q '"sampled_trials":0'
echo "$out2" | grep -qE '"reused_trials":[1-9]'
echo "$out2" | grep -qE '"cache_hits":[1-9]'
# The rows themselves must be identical to the cold run.
[ "$(echo "$out1" | grep '"row"')" = "$(echo "$out2" | grep '"row"')" ]

echo "== stats endpoint"
stats="$(curl -sf "http://$addr/v1/stats")"
echo "$stats"
grep -qE '"cache_hits":[1-9]' <<<"$stats"
grep -q '"requests":2' <<<"$stats"
hits="$(grep -oE '"memo_hits":[0-9]+' <<<"$stats" | cut -d: -f2)"

echo "== third query (the sub-plan memo answers the conf kept by the second)"
out3="$(curl -sf "http://$addr/v1/query" -d "$req")"
echo "$out3"
echo "$out3" | grep -q '"sampled_trials":0'
[ "$(echo "$out1" | grep '"row"')" = "$(echo "$out3" | grep '"row"')" ]
stats="$(curl -sf "http://$addr/v1/stats")"
echo "$stats"
[ "$(grep -oE '"memo_hits":[0-9]+' <<<"$stats" | cut -d: -f2)" -gt "$hits" ]

echo "== /metrics serves Prometheus text exposition with moving counters"
ctype="$(curl -sf -o /dev/null -w '%{content_type}' "http://$addr/metrics")"
case "$ctype" in text/plain*version=0.0.4*) ;; *) echo "bad content type: $ctype"; exit 1;; esac
metrics="$(curl -sf "http://$addr/metrics")"
grep -q '^# TYPE pdb_http_requests_total counter$' <<<"$metrics"
grep -q '^pdb_http_requests_total{route="/v1/query",status="200"} 3$' <<<"$metrics"
grep -qE '^pdb_engine_sampled_trials_total [1-9]' <<<"$metrics"
grep -qE '^pdb_engine_reused_trials_total [1-9]' <<<"$metrics"
grep -qE '^pdb_engine_cache_hits_total [1-9]' <<<"$metrics"
grep -qE '^pdb_engine_memo_hits_total [1-9]' <<<"$metrics"
grep -qE '^pdb_http_request_duration_seconds_count\{route="/v1/query"\} 3$' <<<"$metrics"

echo "== over-quota tenant gets 429 + Retry-After; other traffic unaffected"
# A fresh seed: cached estimator state is seed-guarded, so the bursty
# tenant's first query re-samples every trial (reused trials are free
# and would not overdraw the 1-trial/sec bucket). The second query must
# then be rejected while untenanted requests keep succeeding.
treq='{"program":"conf as P (project[room](join(select[temp >= 21](repairkey[sensor @ w](sensors)), rooms)));","seed":11}'
code="$(curl -s -o /dev/null -w '%{http_code}' -H 'X-Pdb-Tenant: bursty' "http://$addr/v1/query" -d "$treq")"
[ "$code" = "200" ]
hdrs="$(mktemp)"
body="$(curl -s -D "$hdrs" -H 'X-Pdb-Tenant: bursty' "http://$addr/v1/query" -d "$treq")"
echo "$body"
grep -i '^HTTP/' "$hdrs" | grep -q 429
grep -iqE '^Retry-After: [1-9]' "$hdrs"
grep -q '"kind":"overloaded"' <<<"$body"
curl -sf "http://$addr/v1/query" -d "$req" >/dev/null   # untenanted: still 200
curl -sf "http://$addr/metrics" | grep '^pdb_tenant_rejections_total{tenant="bursty",reason="rate"} 1$' >/dev/null

echo "== per-request trial limit maps to 422"
# The per-room program, whose lineage samples: without the select, every
# room holds each of its sensors' every reading, P = 1 exactly and no
# trial is drawn.
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/query" \
  -d '{"program":"conf as P (project[room](join(select[temp >= 21](repairkey[sensor @ w](sensors)), rooms)));","max_trials":10,"conf_epsilon":0.01,"conf_delta":0.01}')"
[ "$code" = "422" ]

echo "== graceful shutdown exits 0"
kill -TERM "$pid"
wait "$pid"
trap - EXIT
echo "service smoke OK"
