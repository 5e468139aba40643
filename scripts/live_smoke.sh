#!/bin/sh
# live_smoke.sh — end-to-end smoke test of the live streaming pipeline:
# generate a reduced-rate corpus with flightgen, train + calibrate with
# the soundboost CLI, then replay a benign flight and a GPS-drift attack
# through the mavbus with `soundboost live` and check the verdicts. A
# 90 s hover replayed unpaced (-speed 0) must then report exactly what
# `soundboost rca` reports on the same file: the bus never drops, however
# far the replay runs ahead of the engine. Everything runs in a
# throwaway temp directory; total runtime is a few tens of seconds (the
# -fast preset keeps audio at 4 kHz).
# Run from the repo root, or via `make live-smoke`.
set -eu

cd "$(dirname "$0")/.."
. ./scripts/smoke_lib.sh

smoke=live-smoke
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== generate corpus (reduced rate) =="
smoke_corpus
"$tmp/flightgen" -fast -out "$tmp" -mission hover -seconds 20 -seed 99 \
    -name benign-incident
"$tmp/flightgen" -fast -out "$tmp" -mission hover -seconds 20 -seed 99 \
    -attack gps-drift -attack-start 6 -attack-end 18 -offset-x 24 \
    -name spoofed-incident
"$tmp/flightgen" -fast -out "$tmp" -mission hover -seconds 90 -seed 123 \
    -name long-hover

echo "== build + train + calibrate =="
smoke_train

echo "== live replay: benign flight =="
"$tmp/soundboost" live -analyzer "$tmp/analyzer.json" \
    -flight "$tmp/benign-incident.sbf" -speed 50 | tee "$tmp/benign.out"
grep -q "root cause: none" "$tmp/benign.out" || {
    echo "live-smoke: benign replay did not report 'root cause: none'" >&2
    exit 1
}

echo "== live replay: GPS drift attack, 5% telemetry drop =="
"$tmp/soundboost" live -analyzer "$tmp/analyzer.json" \
    -flight "$tmp/spoofed-incident.sbf" -speed 0 -drop 0.05 -seed 3 \
    | tee "$tmp/attack.out"
grep -q "root cause: gps" "$tmp/attack.out" || {
    echo "live-smoke: GPS-drift replay did not report 'root cause: gps'" >&2
    exit 1
}

echo "== unpaced live replay of a 90 s hover vs offline rca =="
"$tmp/soundboost" rca -analyzer "$tmp/analyzer.json" \
    -flight "$tmp/long-hover.sbf" > "$tmp/long.rca.out"
"$tmp/soundboost" live -analyzer "$tmp/analyzer.json" \
    -flight "$tmp/long-hover.sbf" -speed 0 | tee "$tmp/long.live.out"
# The first two lines are live's progress lines; the report follows.
tail -n +3 "$tmp/long.live.out" > "$tmp/long.live.report"
diff -u "$tmp/long.rca.out" "$tmp/long.live.report" || {
    echo "live-smoke: unpaced live verdict diverged from offline rca" >&2
    exit 1
}

echo "live-smoke: OK"
