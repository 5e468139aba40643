GO ?= go

.PHONY: build test race bench cover verify verify-short staticcheck fmt live-smoke serve-smoke chaos-smoke sweep-smoke fleet-smoke ha-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# The perf-regression gate takes the parent commit as its argument, so
# it runs as a script: sh scripts/bench_gate.sh PARENT_COMMIT (the
# end-to-end benchmark in bench/, this tree against that commit).

# cover produces coverage.out and prints the total; CI publishes the
# per-package summary from the same profile.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@echo "full per-function breakdown: $(GO) tool cover -func=coverage.out"

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "warning: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Full gate: gofmt -l (fails on output), go vet, staticcheck (enforced
# in CI), build, race-enabled uncached tests, and the seeded chaos soak.
# verify-short skips the soak (fast edit loop; what CI's verify job runs).
verify:
	sh scripts/verify.sh

verify-short:
	sh scripts/verify.sh -short

# live-smoke exercises the streaming pipeline end to end with the CLI:
# flightgen corpus -> train -> calibrate -> `soundboost live` replay of a
# benign and an attacked flight over the mavbus, plus an unpaced replay
# of a 90 s hover whose report must diff clean against `soundboost rca`
# (the bus never drops). Reduced-rate, well under a minute.
live-smoke:
	sh scripts/live_smoke.sh

# serve-smoke exercises the multi-session RCA service end to end:
# flightgen corpus -> train -> calibrate -> `soundboost serve`, then the
# same incident flight through offline rca, HTTP batch upload, and a
# chunked streaming session — all three verdicts must be identical.
serve-smoke:
	sh scripts/serve_smoke.sh

# chaos-smoke soaks the service under deterministic fault injection and
# exercises the crash-safe session journal: `soundboost chaos -seed 42`
# twice (byte-identical output required), then a SIGKILL + restart of
# `soundboost serve -journal` that the streaming client must ride
# through without losing an acknowledged chunk.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# sweep-smoke drives the sweep grid runner against a live `soundboost
# serve` instance: the same 3x3 sweep (attack families x chunk sizes,
# seed 42) runs twice over real HTTP, must be byte-identical, and its
# rollup must match a pinned confusion matrix — the CI gate on
# detection accuracy.
sweep-smoke:
	sh scripts/sweep_smoke.sh

# fleet-smoke shards the service across three journaled `soundboost
# serve` replicas behind one consistent-hash `soundboost gateway`,
# SIGKILLs the replica owning the in-flight session, and requires the
# journal-backed handoff to finish the stream on a successor with a
# verdict byte-identical to the single-node run (scripts/fleet_smoke.sh).
# FLEET_BUILDFLAGS=-race builds every binary under the race detector.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# ha-smoke exercises fleet high availability end to end: three journaled
# replicas with journal replication behind a primary gateway (routing
# state checkpointed) plus a warm standby on the same address. Mid-upload
# the owning replica is SIGKILLed AND its journal directory wiped (the
# follower copy must carry the session), then the primary gateway is
# SIGKILLed (the standby must take over from the lease + checkpoint) —
# and the verdict must stay byte-identical to the single-node run
# (scripts/ha_smoke.sh). FLEET_BUILDFLAGS=-race builds every binary
# under the race detector.
ha-smoke:
	sh scripts/ha_smoke.sh

fmt:
	gofmt -w .
