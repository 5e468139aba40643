#!/bin/sh
# ha_smoke.sh — end-to-end exercise of fleet high availability: three
# journaled `soundboost serve` replicas behind a primary gateway with a
# warm standby, losing BOTH an owner replica (process + journal disk)
# and the primary gateway mid-upload.
#
#   1. Generate a reduced-rate corpus, train and calibrate (same -fast
#      preset as serve_smoke.sh).
#   2. Record the single-node golden: offline `soundboost rca` over the
#      incident flight.
#   3. Start three journaled replicas, a primary gateway with journal
#      replication (-replication 2) and a routing-state checkpoint
#      (-state), and a standby gateway on the SAME address watching the
#      primary's lease.
#   4. Push the incident as a paced streaming session. Mid-flight:
#      SIGKILL the owning replica AND rm -rf its journal directory —
#      the live export and the disk fallback are both gone, so the
#      gateway must rebuild the session from a follower's replicated
#      journal copy. Then SIGKILL the primary gateway — the standby
#      must see the lease go stale, restore placements from the
#      checkpoint, bind the same address, and finish the stream.
#   5. The verdict must be byte-identical to the single-node golden,
#      and a batch upload through the promoted standby must match too.
#   6. TERM the promoted standby and surviving replicas; drains must
#      succeed.
#
# FLEET_BUILDFLAGS=-race runs every binary under the race detector.
# Everything runs in a throwaway temp directory. Run from the repo root,
# or via `make ha-smoke`.
set -eu

cd "$(dirname "$0")/.."
. ./scripts/smoke_lib.sh

smoke=ha-smoke
tmp=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

gw_addr=127.0.0.1:18722

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

wait_log() { # wait_log <file> <pattern> <what>
    i=0
    while [ $i -lt 100 ]; do
        if grep -q "$2" "$1" 2>/dev/null; then
            return 0
        fi
        sleep 0.2
        i=$((i + 1))
    done
    echo "ha-smoke: $3 (no \"$2\" in $1)" >&2
    cat "$1" >&2
    exit 1
}

echo "== start 3 journaled replicas + primary/standby gateways =="
replica_flags=""
for n in 1 2 3; do
    addr=127.0.0.1:$((18722 + n))
    "$tmp/soundboost" serve -analyzer "$tmp/analyzer.json" -addr "$addr" \
        -journal "$tmp/journal$n" > "$tmp/serve$n.log" 2>&1 &
    eval "pid_r$n=$!"
    pids="$pids $!"
    replica_flags="$replica_flags -replica r$n=http://$addr=$tmp/journal$n"
done
for n in 1 2 3; do
    wait_healthz "127.0.0.1:$((18722 + n))" "replica r$n"
done
ha_flags="-probe 200ms -replication 2 -state $tmp/gateway.state \
    -lease-interval 200ms -lease-ttl 1s"
# shellcheck disable=SC2086 # replica_flags / ha_flags must word-split
"$tmp/soundboost" gateway -addr "$gw_addr" $ha_flags $replica_flags \
    > "$tmp/gateway.log" 2>&1 &
gw_pid=$!
pids="$pids $gw_pid"
wait_healthz "$gw_addr" "primary gateway"
# The standby shares the address: it binds only after a takeover.
# shellcheck disable=SC2086
"$tmp/soundboost" gateway -addr "$gw_addr" -standby $ha_flags $replica_flags \
    > "$tmp/standby.log" 2>&1 &
sb_pid=$!
pids="$pids $sb_pid"
wait_log "$tmp/standby.log" "standby gateway watching lease" "standby never started"

echo "== stream through the gateway; kill owner replica + wipe its journal, then kill the gateway =="
# -pace keeps the upload in flight for several seconds (20 one-second
# chunks at 150ms spacing) so both faults reliably land mid-stream.
"$tmp/soundboost" push -addr "http://$gw_addr" -flight "$tmp/incident.sbf" \
    -mode session -chunk 1 -pace 150ms -retries 30 -retry-base 300ms \
    > "$tmp/ha.push.out" 2> "$tmp/push.log" &
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
    echo "ha-smoke: no session placement in gateway log" >&2
    cat "$tmp/gateway.log" >&2
    exit 1
fi
sleep 0.5
eval "owner_pid=\$pid_$(echo "$owner" | tr -cd 'r0-9')"
owner_journal="$tmp/journal$(echo "$owner" | tr -cd '0-9')"
echo "  session placed on $owner (pid $owner_pid); wiping $owner_journal and killing it"
# Wipe first, then kill: the gateway must never win a race to read the
# disk between the two faults — the follower copy is the only source.
rm -rf "$owner_journal"
kill -9 "$owner_pid"
wait "$owner_pid" 2>/dev/null || true
# With process AND disk gone, the failover journal must come from a
# follower's replicated copy.
wait_log "$tmp/gateway.log" "failed over $owner" "no failover off $owner"
grep -q "served from follower copy" "$tmp/gateway.log" || {
    echo "ha-smoke: failover did not use a follower journal copy" >&2
    cat "$tmp/gateway.log" >&2
    exit 1
}

echo "  killing primary gateway (pid $gw_pid); standby must take over"
kill -9 "$gw_pid"
wait "$gw_pid" 2>/dev/null || true
wait_log "$tmp/standby.log" "standby promoted to primary" "standby never took over"
wait_log "$tmp/standby.log" "restored .* session" "standby restored no placements"

if ! wait "$push_pid"; then
    echo "ha-smoke: push did not survive replica kill + journal wipe + gateway kill" >&2
    sed 's/^/  push: /' "$tmp/push.log" >&2
    sed 's/^/  gateway: /' "$tmp/gateway.log" >&2
    sed 's/^/  standby: /' "$tmp/standby.log" >&2
    exit 1
fi

echo "== verdict through both failures must equal the single-node golden =="
diff -u "$tmp/golden.out" "$tmp/ha.push.out" || {
    echo "ha-smoke: session verdict diverged from single-node run" >&2
    exit 1
}

echo "== batch upload through the promoted standby must match too =="
"$tmp/soundboost" push -addr "http://$gw_addr" -flight "$tmp/incident.sbf" \
    -mode batch > "$tmp/ha.batch.out"
diff -u "$tmp/golden.out" "$tmp/ha.batch.out" || {
    echo "ha-smoke: batch verdict via standby diverged from single-node run" >&2
    exit 1
}
grep -h "failed over\|follower copy\|promoted" "$tmp/gateway.log" "$tmp/standby.log" | sed 's/^/  /' || true

echo "== graceful drain of the promoted standby and surviving replicas =="
kill -TERM "$sb_pid"
wait "$sb_pid" || {
    echo "ha-smoke: standby gateway drain failed" >&2
    cat "$tmp/standby.log" >&2
    exit 1
}
for n in 1 2 3; do
    eval "p=\$pid_r$n"
    [ "r$n" = "$owner" ] && continue
    kill -TERM "$p"
    wait "$p" || {
        echo "ha-smoke: replica r$n drain failed" >&2
        cat "$tmp/serve$n.log" >&2
        exit 1
    }
done
pids=""

echo "ha-smoke: OK"
