#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the multi-session RCA
# service: generate a reduced-rate corpus with flightgen, train +
# calibrate with the soundboost CLI, start `soundboost serve`, and drive
# an incident flight through all three analysis paths — offline
# `soundboost rca`, HTTP batch upload, and a chunked streaming session —
# requiring byte-identical verdicts from each. Finishes by exercising
# the SIGTERM graceful drain. Everything runs in a throwaway temp
# directory; total runtime is a few seconds (the -fast preset keeps
# audio at 4 kHz).
# Run from the repo root, or via `make serve-smoke`.
set -eu

cd "$(dirname "$0")/.."
. ./scripts/smoke_lib.sh

smoke=serve-smoke
tmp=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

addr=127.0.0.1:18713

echo "== generate corpus (reduced rate) =="
smoke_corpus
"$tmp/flightgen" -fast -out "$tmp" -mission hover -seconds 20 -seed 99 \
    -name benign-incident
"$tmp/flightgen" -fast -out "$tmp" -mission hover -seconds 20 -seed 99 \
    -attack gps-drift -attack-start 6 -attack-end 18 -offset-x 24 \
    -name spoofed-incident

echo "== build + train + calibrate =="
smoke_train

echo "== offline verdicts (soundboost rca) =="
for f in benign-incident spoofed-incident; do
    "$tmp/soundboost" rca -analyzer "$tmp/analyzer.json" \
        -flight "$tmp/$f.sbf" > "$tmp/$f.rca.out"
done

echo "== start soundboost serve =="
"$tmp/soundboost" serve -analyzer "$tmp/analyzer.json" -addr "$addr" &
server_pid=$!
wait_healthz "$addr" server "$server_pid"
echo "healthz: $(curl -fsS "http://$addr/v1/healthz")"

echo "== HTTP batch + streaming-session verdicts (soundboost push) =="
for f in benign-incident spoofed-incident; do
    "$tmp/soundboost" push -addr "http://$addr" -flight "$tmp/$f.sbf" \
        -mode batch > "$tmp/$f.batch.out"
    "$tmp/soundboost" push -addr "http://$addr" -flight "$tmp/$f.sbf" \
        -mode session -chunk 2 > "$tmp/$f.session.out"
done

echo "== diff: offline vs batch vs session =="
for f in benign-incident spoofed-incident; do
    diff -u "$tmp/$f.rca.out" "$tmp/$f.batch.out" || {
        echo "serve-smoke: $f batch verdict diverged from offline rca" >&2
        exit 1
    }
    diff -u "$tmp/$f.rca.out" "$tmp/$f.session.out" || {
        echo "serve-smoke: $f session verdict diverged from offline rca" >&2
        exit 1
    }
done
grep -q "root cause: none" "$tmp/benign-incident.rca.out" || {
    echo "serve-smoke: benign incident did not report 'root cause: none'" >&2
    exit 1
}
grep -q "root cause: gps" "$tmp/spoofed-incident.rca.out" || {
    echo "serve-smoke: spoofed incident did not report 'root cause: gps'" >&2
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
[ "$drained" = 1 ] || { echo "serve-smoke: server did not drain on SIGTERM" >&2; exit 1; }
wait "$server_pid" || { echo "serve-smoke: server exited non-zero after drain" >&2; exit 1; }
server_pid=""

echo "serve-smoke: OK"
