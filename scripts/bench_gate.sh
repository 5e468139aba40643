#!/bin/sh
# bench_gate.sh — CI's perf-regression gate: this working tree (the
# change) against its parent commit on the end-to-end benchmark in
# bench/ (see bench/README.md).
#
#   sh scripts/bench_gate.sh PARENT_COMMIT
#
# The parent is checked out with `git worktree add` into a temporary
# directory. For pair i = 1..PAIRS and each gated workload, both trees
# run `bash bench/run.sh -workload W -seed i`, each into its own -out
# directory; the side that runs first alternates from pair to pair.
# `bench/run.sh -compare` of the two directories then prints one row per
# (workload, end-to-end metric). It always exits 0, so this script
# decides. It fails when
#   - any row's outcome is `worse`, or
#   - a change-side run has `correct: false`, or more failed operations
#     than its paired parent run.
# `unresolved` rows (the parent's own runs spread wider than the
# metric's bound) are printed but do not fail the gate.
#
# Before trusting its verdict, the gate self-tests on the parent's
# result files:
#   1. offline-f64 with flight_s_per_s halved and latency_p80_ms doubled
#      must come out `worse` on both rows;
#   2. the same for offline-f32 must come out `worse` on both offline-f32
#      rows and on no offline-f64 row;
#   3. the parent's results against themselves must pass.
# A gate that cannot reject a 2x slowdown of either precision, or that
# rejects identical inputs, is broken: that fails louder than any real
# regression.
#
# The comparison uses the parent's bench/ and BENCHMARK.json, so a
# change cannot loosen the bounds it is judged by.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: sh scripts/bench_gate.sh PARENT_COMMIT" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
change=$(pwd)
parent=$(git rev-parse --verify "$1^{commit}")

# Ten pairs, the set size the bounds were calibrated on
# (bench/README.md): there the timing metrics' IQR over ten runs was
# 0.05-0.25 of the median. Over five runs the quartiles are the means of
# the two extreme runs on each side: on a 2-CPU host offline-f32's
# throughput IQR then reached 0.27 of its median, past its 0.25 bound,
# so a halved offline-f32 came out `unresolved` and self-test 2 failed.
PAIRS=10
WORKLOADS="offline-f64 offline-f32 serve-live fleet-live"

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_gate.XXXXXX")
cleanup() {
    git worktree remove --force "$work/parent" >/dev/null 2>&1 || true
    git worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 1' INT TERM
git worktree add --detach -q "$work/parent" "$parent"
mkdir -p "$work/old" "$work/new"
echo "bench_gate: $(git -C "$work/parent" rev-parse --short HEAD) (old) against the working tree (new), $PAIRS pairs of $WORKLOADS"

fail() {
    echo "bench_gate: $*" >&2
    exit 1
}

# run SIDE WORKLOAD SEED: one benchmark run of the parent (old) or the
# change (new) tree.
run() {
    if [ "$1" = old ]; then tree=$work/parent; else tree=$change; fi
    echo "bench_gate: pair $3 $2 $1"
    if ! (cd "$tree" && bash bench/run.sh -workload "$2" -seed "$3" -trace 0 -out "$work/$1") >"$work/run.log" 2>&1; then
        cat "$work/run.log" >&2
        fail "$1 run of $2 seed $3 failed"
    fi
}

i=1
while [ "$i" -le "$PAIRS" ]; do
    for w in $WORKLOADS; do
        if [ $((i % 2)) -eq 1 ]; then
            run old "$w" "$i"
            run new "$w" "$i"
        else
            run new "$w" "$i"
            run old "$w" "$i"
        fi
        res=$w.seed$i.trace0.json
        jq -e '.correct' "$work/new/$res" >/dev/null ||
            fail "change run $w seed $i is not correct: $(jq -c '.checks' "$work/new/$res")"
        oldFailed=$(jq '.failed' "$work/old/$res")
        newFailed=$(jq '.failed' "$work/new/$res")
        [ "$newFailed" -le "$oldFailed" ] ||
            fail "change run $w seed $i failed $newFailed operations, parent $oldFailed"
    done
    i=$((i + 1))
done

# compare OLD NEW: the -compare table, from the parent's tree.
compare() {
    (cd "$work/parent" && bash bench/run.sh -compare "$1" "$2")
}

# worse_rows: the "workload metric" of every `worse` row of a table.
worse_rows() {
    awk '$NF == "worse" { print $1, $2 }'
}

# doctor WORKLOAD DIR: the parent's results with WORKLOAD's runs halved
# in throughput and doubled in latency.
doctor() {
    mkdir -p "$2"
    for f in "$work"/old/*.json; do
        case $(basename "$f") in
        "$1".*) jq '.metrics.flight_s_per_s.value /= 2 | .metrics.latency_p80_ms.value *= 2' "$f" >"$2/$(basename "$f")" ;;
        *) cp "$f" "$2/" ;;
        esac
    done
}

selftest_fail() {
    echo "$2" >&2
    fail "SELF-TEST FAILED: $1"
}

doctor offline-f64 "$work/st64"
table=$(compare "$work/old" "$work/st64")
worse=$(echo "$table" | worse_rows)
case $worse in
*"offline-f64 flight_s_per_s"*"offline-f64 latency_p80_ms"*) ;;
*) selftest_fail "a 2x offline-f64 slowdown was not worse on both rows" "$table" ;;
esac
echo "bench_gate: self-test ok (2x offline-f64 slowdown rejected)"

doctor offline-f32 "$work/st32"
table=$(compare "$work/old" "$work/st32")
worse=$(echo "$table" | worse_rows)
case $worse in
*offline-f64*) selftest_fail "a 2x offline-f32 slowdown made offline-f64 worse" "$table" ;;
*"offline-f32 flight_s_per_s"*"offline-f32 latency_p80_ms"*) ;;
*) selftest_fail "a 2x offline-f32 slowdown was not worse on both rows" "$table" ;;
esac
echo "bench_gate: self-test ok (2x offline-f32 slowdown rejected, offline-f64 untouched)"

table=$(compare "$work/old" "$work/old")
if [ -n "$(echo "$table" | worse_rows)" ]; then
    selftest_fail "the parent's runs compared against themselves came out worse" "$table"
fi
echo "bench_gate: self-test ok (parent against itself passes)"

table=$(compare "$work/old" "$work/new")
echo "$table"
echo "$table" | awk '$NF == "unresolved" { print "bench_gate: unresolved (parent spread beyond the bound): " $1, $2 }'
worse=$(echo "$table" | worse_rows)
if [ -n "$worse" ]; then
    echo "$worse" | sed 's/^/bench_gate: worse: /' >&2
    fail "the change regresses against $parent"
fi
echo "bench_gate: OK"
