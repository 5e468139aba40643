#!/bin/sh
# sweep_smoke.sh — end-to-end smoke test of the sweep grid runner
# against a live server: generate a reduced-rate corpus with flightgen,
# train + calibrate with the soundboost CLI, start `soundboost serve`,
# then run the same 3x3 sweep (attack families x chunk sizes, seed 42)
# twice over real HTTP. The two runs must be byte-identical — JSONL
# records, CSV summary, and rollup — and the rollup's confusion
# matrices must match the pinned golden below, making this a CI gate on
# detection accuracy: a detector change that moves a verdict shows up
# as a diff here, not as silent drift. Everything runs in a throwaway
# temp directory. Run from the repo root, or via `make sweep-smoke`.
set -eu

cd "$(dirname "$0")/.."
. ./scripts/smoke_lib.sh

smoke=sweep-smoke
tmp=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

addr=127.0.0.1:18714

echo "== generate corpus (reduced rate) =="
smoke_corpus

echo "== build + train + calibrate =="
smoke_train

echo "== start soundboost serve =="
"$tmp/soundboost" serve -analyzer "$tmp/analyzer.json" -addr "$addr" &
server_pid=$!
wait_healthz "$addr" server "$server_pid"

echo "== sweep twice (3 attacks x 3 chunk sizes, seed 42) =="
for run in 1 2; do
    "$tmp/soundboost" sweep -addr "http://$addr" \
        -attacks benign,gps-drift,imu-dos -chunks 1,2,4 \
        -seconds 16 -seed 42 -concurrency 4 \
        -jsonl "$tmp/sweep$run.jsonl" -csv "$tmp/sweep$run.csv" \
        > "$tmp/sweep$run.rollup.json"
done

echo "== diff: same seed must be byte-identical =="
for f in jsonl csv rollup.json; do
    diff -u "$tmp/sweep1.$f" "$tmp/sweep2.$f" || {
        echo "sweep-smoke: seed-42 runs diverged in $f" >&2
        exit 1
    }
done

echo "== confusion-matrix gate (pinned) =="
# The pinned rollup for this corpus + grid: every attack flight is
# detected in every chunk cell, no benign false alarms, and every
# root cause is attributed to the right sensor. A regression in the
# detectors, the chunker, or the streaming engine moves these counts.
cat > "$tmp/want.rollup.json" <<'EOF'
{
  "schema_version": "sweep/v2",
  "trials": 9,
  "flights": 3,
  "pooled": {
    "tp": 6,
    "fp": 0,
    "tn": 3,
    "fn": 0,
    "tpr": 1,
    "fpr": 0
  },
  "session_disjoint": {
    "tp": 2,
    "fp": 0,
    "tn": 1,
    "fn": 0,
    "tpr": 1,
    "fpr": 0
  },
  "attribution": {
    "correct": 9,
    "total": 9,
    "accuracy": 1
  },
  "gps_auc": 1
}
EOF
diff -u "$tmp/want.rollup.json" "$tmp/sweep1.rollup.json" || {
    echo "sweep-smoke: rollup diverged from the pinned confusion matrix" >&2
    exit 1
}

echo "== graceful drain (SIGTERM) =="
kill -TERM "$server_pid"
drained=0
i=0
while [ $i -lt 100 ]; do
    if ! kill -0 "$server_pid" 2>/dev/null; then
        drained=1
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
[ "$drained" = 1 ] || { echo "sweep-smoke: server did not drain on SIGTERM" >&2; exit 1; }
wait "$server_pid" || { echo "sweep-smoke: server exited non-zero after drain" >&2; exit 1; }
server_pid=""

echo "sweep-smoke: OK"
