#!/bin/sh
# bench_gate.sh — the CI perf-regression gate for the triage fast path
# and the float32 precision fast path.
#
# Runs a fresh instrumented throughput bench (benchtab -run throughput),
# then compares it against the newest committed BENCH_<n>.json baseline
# with `benchtab -compare OLD NEW -max-regress <tol>`: the gate fails
# when flights/sec (float64, and float32 once both reports carry the
# float32 rows) drops, or p99 per-flight latency rises, by more than the
# tolerance (default 15%).
#
# Before trusting its own pass verdict, the script self-tests the gate
# on two injected synthetic failures, each against the fresh report
# itself so the self-tests hold on any host: the fresh report with
# halved throughput and doubled p99, and the fresh report with halved
# float32 throughput. Both MUST fail the comparison. A gate that cannot
# reject a 2x slowdown of either precision is broken, and that
# brokenness should fail CI louder than any real regression.
#
# Environment:
#   MAX_REGRESS       tolerance for -max-regress (default 15%)
#   BENCH_GATE_SCALE  experiment scale for the fresh run (default bench)
set -eu

cd "$(dirname "$0")/.."

MAX_REGRESS="${MAX_REGRESS:-15%}"
SCALE="${BENCH_GATE_SCALE:-bench}"

# Newest committed baseline: the highest BENCH_<n>.json, starting at the
# pre-triage BENCH_0.json.
baseline=""
n=0
while [ -e "BENCH_$n.json" ]; do
    baseline="BENCH_$n.json"
    n=$((n + 1))
done
if [ -z "$baseline" ]; then
    echo "bench_gate: no committed BENCH_<n>.json baseline (run make bench-json)" >&2
    exit 1
fi
echo "bench_gate: baseline $baseline, tolerance $MAX_REGRESS, scale $SCALE"

fresh="${TMPDIR:-/tmp}/bench_gate_$$.json"
doctored="$fresh.regressed"
doctored_f32="$fresh.f32"
trap 'rm -f "$fresh" "$doctored" "$doctored_f32"' EXIT

go run ./cmd/benchtab -scale "$SCALE" -run throughput -bench-json "$fresh"
go run ./cmd/benchtab -validate-bench "$fresh"

# Self-test 1: inject a synthetic regression and require the gate to fail
# against the fresh report itself (the committed baseline may come from a
# host fast enough that a halved fresh report still beats it).
python3 - "$fresh" "$doctored" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
tp = report["throughput"]
tp["baseline_flights_per_sec"] /= 2
if tp["triage_flights_per_sec"]:
    tp["triage_flights_per_sec"] /= 2
tp["baseline_p99_flight_seconds"] *= 2
if tp["p99_flight_seconds"]:
    tp["p99_flight_seconds"] *= 2
json.dump(report, open(sys.argv[2], "w"))
EOF
if go run ./cmd/benchtab -compare "$fresh" "$doctored" -max-regress "$MAX_REGRESS" >/dev/null 2>&1; then
    echo "bench_gate: SELF-TEST FAILED: an injected 2x slowdown passed the gate" >&2
    exit 1
fi
echo "bench_gate: self-test ok (injected 2x slowdown rejected)"

# Self-test 2: halve the fresh report's float32 throughput and require
# the like-for-like float32 row to fail against the fresh report itself
# (a host-independent baseline for that row).
python3 - "$fresh" "$doctored_f32" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
tp = report["throughput"]
if not tp.get("float32_baseline_flights_per_sec"):
    sys.exit("fresh report has no float32 throughput rows")
tp["float32_baseline_flights_per_sec"] /= 2
json.dump(report, open(sys.argv[2], "w"))
EOF
if out=$(go run ./cmd/benchtab -compare "$fresh" "$doctored_f32" -max-regress "$MAX_REGRESS" 2>&1); then
    echo "bench_gate: SELF-TEST FAILED: a halved float32 throughput passed the gate" >&2
    exit 1
fi
case "$out" in
*"float32 throughput regressed"*) ;;
*)
    echo "bench_gate: SELF-TEST FAILED: halved float32 throughput failed for another reason: $out" >&2
    exit 1
    ;;
esac
echo "bench_gate: self-test ok (halved float32 throughput rejected)"

go run ./cmd/benchtab -compare "$baseline" "$fresh" -max-regress "$MAX_REGRESS"
echo "bench_gate: OK"
