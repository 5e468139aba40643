#!/bin/sh
# chaos_smoke.sh — end-to-end exercise of the fault-injection harness
# and the crash-safe session journal:
#
#   1. Generate a reduced-rate corpus, train and calibrate (same -fast
#      preset as serve_smoke.sh).
#   2. Run `soundboost chaos -seed 42` TWICE and require byte-identical
#      stdout: same seed, same faults, same verdicts, same accounting.
#      The soak itself asserts fault/metric reconciliation, per-session
#      panic isolation, zero shed messages, and no goroutine leaks.
#   3. Run a different seed and require the fault schedule to differ
#      (the determinism must come from the seed, not from a constant).
#   4. Start `soundboost serve -journal`, begin a streaming upload, kill
#      the server with SIGKILL mid-flight (no drain, no flush), restart
#      it over the same journal, and require the SAME push client to
#      ride through the outage on its retry loop: the recovered session
#      keeps every acknowledged chunk, resends are absorbed as
#      duplicates, and the final verdict equals offline `soundboost rca`.
#
# Everything runs in a throwaway temp directory. Run from the repo root,
# or via `make chaos-smoke`.
set -eu

cd "$(dirname "$0")/.."
. ./scripts/smoke_lib.sh

smoke=chaos-smoke
tmp=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

addr=127.0.0.1:18714

echo "== generate corpus (reduced rate) =="
smoke_corpus
"$tmp/flightgen" -fast -out "$tmp" -mission hover -seconds 20 -seed 99 \
    -name incident

echo "== build + train + calibrate =="
# CHAOS_BUILDFLAGS lets CI run the whole soak under the race detector
# (CHAOS_BUILDFLAGS=-race); unquoted on purpose so flags word-split.
# shellcheck disable=SC2086
smoke_train ${CHAOS_BUILDFLAGS:-}

echo "== chaos soak: same seed twice must be byte-identical =="
"$tmp/soundboost" chaos -analyzer "$tmp/analyzer.json" \
    -flight "$tmp/incident.sbf" -seed 42 > "$tmp/chaos.42a.out"
"$tmp/soundboost" chaos -analyzer "$tmp/analyzer.json" \
    -flight "$tmp/incident.sbf" -seed 42 > "$tmp/chaos.42b.out"
diff -u "$tmp/chaos.42a.out" "$tmp/chaos.42b.out" || {
    echo "chaos-smoke: seed 42 is not reproducible" >&2
    exit 1
}
sed 's/^/  /' "$tmp/chaos.42a.out"

echo "== chaos soak: a different seed must differ =="
"$tmp/soundboost" chaos -analyzer "$tmp/analyzer.json" \
    -flight "$tmp/incident.sbf" -seed 43 > "$tmp/chaos.43.out"
if diff -q "$tmp/chaos.42a.out" "$tmp/chaos.43.out" >/dev/null; then
    echo "chaos-smoke: seeds 42 and 43 injected identical faults" >&2
    exit 1
fi

echo "== offline verdict for the recovery check =="
"$tmp/soundboost" rca -analyzer "$tmp/analyzer.json" \
    -flight "$tmp/incident.sbf" > "$tmp/incident.rca.out"

start_server() {
    "$tmp/soundboost" serve -analyzer "$tmp/analyzer.json" -addr "$addr" \
        -journal "$tmp/journal" >> "$tmp/serve.log" 2>&1 &
    server_pid=$!
    wait_healthz "$addr" server "$server_pid" "$tmp/serve.log"
}

echo "== crash-safe journal: upload, SIGKILL mid-flight, restart, resume =="
start_server
# Stream the flight in many small chunks so the kill lands mid-upload;
# the generous retry budget is what carries the client across the
# restart window.
"$tmp/soundboost" push -addr "http://$addr" -flight "$tmp/incident.sbf" \
    -mode session -chunk 1 -retries 30 -retry-base 300ms \
    > "$tmp/incident.push.out" 2> "$tmp/push.log" &
push_pid=$!
sleep 0.5
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "== restart over the same journal while the client retries =="
start_server
if ! wait "$push_pid"; then
    echo "chaos-smoke: push did not survive the server restart" >&2
    sed 's/^/  push: /' "$tmp/push.log" >&2
    exit 1
fi
diff -u "$tmp/incident.rca.out" "$tmp/incident.push.out" || {
    echo "chaos-smoke: post-restart session verdict diverged from offline rca" >&2
    exit 1
}
grep -h "recovered" "$tmp/serve.log" | sed 's/^/  /' || true
grep -h "duplicate" "$tmp/push.log" | sed 's/^/  /' || true

kill -TERM "$server_pid"
wait "$server_pid" || true
server_pid=""

echo "chaos-smoke: OK"
