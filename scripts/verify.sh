#!/bin/sh
# verify.sh — the repository's full verification gate:
#   gofmt (fail on any unformatted file), go vet, staticcheck, build,
#   race-enabled tests (uncached: -count=1 avoids cached-test false greens),
#   10 s of each native fuzz target, vet and short tests of the bench/
#   module, and the seeded chaos soak
#   (scripts/chaos_smoke.sh).
# Run from the repo root, or via `make verify`.
#
# `verify.sh -short` skips the chaos soak — it trains a model and soaks
# the service (~minutes), so the short form keeps the edit loop fast. CI
# runs the soak in its own job (under -race) and the short gate here.
#
# staticcheck is enforced when the binary is present (and always in CI,
# where the workflow installs it); locally it downgrades to a warning so
# the gate stays dependency-free.
#
# Performance is gated separately: `sh scripts/bench_gate.sh PARENT`
# runs the end-to-end benchmark in bench/ on this tree against the
# parent commit (CI runs it in the bench-gate job).
set -eu

cd "$(dirname "$0")/.."

short=0
for arg in "$@"; do
    case "$arg" in
    -short) short=1 ;;
    *)
        echo "usage: verify.sh [-short]" >&2
        exit 2
        ;;
    esac
done

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
elif [ -n "${CI:-}" ]; then
    echo "staticcheck: required in CI but not installed" >&2
    exit 1
else
    echo "warning: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi

echo "== go build =="
go build ./...

echo "== go test -race -count=1 =="
go test -race -count=1 ./...

echo "== fuzz (10s per target) =="
# The native fuzz targets: the strict chunk decoder against encoding/json
# (frames bodies and replication appends), its check mode against its
# full decode, its float kernel against strconv.ParseFloat, the client
# chunker's encode/decode/reassembly round trip, the journal scanner's
# torn-tail/corruption contract, the follower append's
# seq/duplicate/gap contract and the stream engine against batch Analyze
# on degraded flights. Seed corpora live in testdata/fuzz.
for target in ./api:FuzzDecodeFrames ./api:FuzzDecodeJournalAppend \
    ./api:FuzzCheckFrames ./api:FuzzCheckJournalAppend ./api:FuzzParseNumber \
    ./api:FuzzChunkFlight \
    ./internal/journal:FuzzReadChunkLog ./internal/server:FuzzFollowerAppend \
    ./internal/stream:FuzzBatchStreamEquivalence; do
    go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime=10s "${target%%:*}"
done

echo "== bench module: go vet + go test -short =="
# bench/ is its own module (it replaces soundboost with this checkout),
# so the root ./... never compiles it, yet it links against the code
# above. GOPROXY=off keeps the check offline.
(cd bench && GOPROXY=off go vet ./... && GOPROXY=off go test -short -count=1 ./...)

if [ "$short" -eq 1 ]; then
    echo "== chaos smoke (skipped: -short) =="
else
    echo "== chaos smoke =="
    sh scripts/chaos_smoke.sh
fi

echo "verify: OK"
