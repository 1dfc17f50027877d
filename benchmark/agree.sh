#!/usr/bin/env bash
# Runs the full benchmark twice on the same code and compares the two
# result documents with the bounds in BENCHMARK.json: one line per
# workload × end-to-end metric (and per exactly repeating layer count),
# "ok", "unresolved" or "differs"; exits non-zero on any "differs".
# Extra arguments (-seed, -seconds, …) go to both runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
"$here/run.sh" -out "$here/out/agree-a" "$@"
"$here/run.sh" -out "$here/out/agree-b" "$@"
"$here/run.sh" -compare "$here/out/agree-a/result.json" "$here/out/agree-b/result.json"
