#!/bin/sh
# fleet_smoke.sh — end-to-end exercise of the sharded fleet: three
# `soundboost serve` replicas behind one consistent-hash gateway, with a
# replica SIGKILLed mid-upload.
#
#   1. Generate a reduced-rate corpus, train and calibrate (same -fast
#      preset as serve_smoke.sh).
#   2. Record the single-node golden: offline `soundboost rca` over the
#      incident flight (serve_smoke.sh pins streaming == batch == rca,
#      so rca IS the unsharded verdict).
#   3. Start three journaled serve replicas and a gateway over them.
#   4. Push the incident through the gateway as a chunked streaming
#      session; read the session's placement from the gateway log and
#      SIGKILL that replica mid-flight. The gateway must migrate the
#      session onto a successor by replaying its journal, absorb the
#      client's resend as a duplicate, and finish the stream there.
#   5. The fleet verdict must be byte-identical to the single-node
#      golden. A batch upload through the gateway must match too.
#   6. TERM the gateway and surviving replicas; drains must succeed.
#
# FLEET_BUILDFLAGS=-race runs every binary under the race detector.
# Everything runs in a throwaway temp directory. Run from the repo root,
# or via `make fleet-smoke`.
set -eu

cd "$(dirname "$0")/.."
. ./scripts/smoke_lib.sh

smoke=fleet-smoke
tmp=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

gw_addr=127.0.0.1:18712

echo "== generate corpus (reduced rate) =="
smoke_corpus
"$tmp/flightgen" -fast -out "$tmp" -mission hover -seconds 20 -seed 99 \
    -name incident

echo "== build + train + calibrate =="
# Unquoted on purpose so FLEET_BUILDFLAGS word-splits (e.g. -race).
# shellcheck disable=SC2086
smoke_train ${FLEET_BUILDFLAGS:-}

echo "== single-node golden verdict =="
"$tmp/soundboost" rca -analyzer "$tmp/analyzer.json" \
    -flight "$tmp/incident.sbf" > "$tmp/golden.out"

echo "== start 3 journaled replicas + gateway =="
replica_flags=""
for n in 1 2 3; do
    addr=127.0.0.1:$((18712 + n))
    "$tmp/soundboost" serve -analyzer "$tmp/analyzer.json" -addr "$addr" \
        -journal "$tmp/journal$n" > "$tmp/serve$n.log" 2>&1 &
    eval "pid_r$n=$!"
    pids="$pids $!"
    replica_flags="$replica_flags -replica r$n=http://$addr=$tmp/journal$n"
done
for n in 1 2 3; do
    wait_healthz "127.0.0.1:$((18712 + n))" "replica r$n"
done
# shellcheck disable=SC2086 # replica_flags must word-split
"$tmp/soundboost" gateway -addr "$gw_addr" -probe 200ms $replica_flags \
    > "$tmp/gateway.log" 2>&1 &
gw_pid=$!
pids="$pids $gw_pid"
wait_healthz "$gw_addr" "gateway"

echo "== stream through the gateway; SIGKILL the owning replica mid-flight =="
# -pace keeps the upload in flight for several seconds (20 one-second
# chunks at 150ms spacing) so the kill below reliably lands mid-stream.
"$tmp/soundboost" push -addr "http://$gw_addr" -flight "$tmp/incident.sbf" \
    -mode session -chunk 1 -pace 150ms -retries 30 -retry-base 300ms \
    > "$tmp/fleet.push.out" 2> "$tmp/push.log" &
push_pid=$!
# The gateway logs each placement as "session g-XXXXXXXX -> rN/s-...".
owner=""
i=0
while [ $i -lt 50 ]; do
    owner=$(sed -n 's/.*session g-[0-9]* -> \(r[0-9]*\)\/.*/\1/p' "$tmp/gateway.log" | head -1)
    [ -n "$owner" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$owner" ]; then
    echo "fleet-smoke: no session placement in gateway log" >&2
    cat "$tmp/gateway.log" >&2
    exit 1
fi
sleep 0.5
eval "owner_pid=\$pid_$(echo "$owner" | tr -cd 'r0-9')"
echo "  session placed on $owner (pid $owner_pid); killing it"
kill -9 "$owner_pid"
wait "$owner_pid" 2>/dev/null || true

if ! wait "$push_pid"; then
    echo "fleet-smoke: push did not survive the replica kill" >&2
    sed 's/^/  push: /' "$tmp/push.log" >&2
    sed 's/^/  gateway: /' "$tmp/gateway.log" >&2
    exit 1
fi
grep -q "failed over $owner" "$tmp/gateway.log" || {
    echo "fleet-smoke: gateway log records no failover off $owner" >&2
    cat "$tmp/gateway.log" >&2
    exit 1
}

echo "== fleet verdict must equal the single-node golden =="
diff -u "$tmp/golden.out" "$tmp/fleet.push.out" || {
    echo "fleet-smoke: fleet session verdict diverged from single-node run" >&2
    exit 1
}

echo "== batch upload through the gateway must match too =="
"$tmp/soundboost" push -addr "http://$gw_addr" -flight "$tmp/incident.sbf" \
    -mode batch > "$tmp/fleet.batch.out"
diff -u "$tmp/golden.out" "$tmp/fleet.batch.out" || {
    echo "fleet-smoke: fleet batch verdict diverged from single-node run" >&2
    exit 1
}
grep -h "failed over" "$tmp/gateway.log" | sed 's/^/  /' || true

echo "== graceful drain of gateway and surviving replicas =="
kill -TERM "$gw_pid"
wait "$gw_pid" || {
    echo "fleet-smoke: gateway drain failed" >&2
    cat "$tmp/gateway.log" >&2
    exit 1
}
for n in 1 2 3; do
    eval "p=\$pid_r$n"
    [ "r$n" = "$owner" ] && continue
    kill -TERM "$p"
    wait "$p" || {
        echo "fleet-smoke: replica r$n drain failed" >&2
        cat "$tmp/serve$n.log" >&2
        exit 1
    }
done
pids=""

echo "fleet-smoke: OK"
