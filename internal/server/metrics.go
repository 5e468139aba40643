package server

import (
	"strings"
	"sync"

	"soundboost/internal/obs"
)

// Server metrics, resolved once at init and gated by obs.Enable (serve
// them with -debug-addr). server.sessions.active tracks table occupancy;
// the reject counters split backpressure by cause (full session table vs
// full batch pool); the per-endpoint timers are latency histograms with
// p50/p95/p99 in the registry snapshot. The batch pool's live queue
// depth is parallel.limiter.batch-rca.in_use.
var (
	sessionsActive   = obs.Default.Gauge("server.sessions.active")
	sessionsOpened   = obs.Default.Counter("server.sessions.opened")
	sessionsClosed   = obs.Default.Counter("server.sessions.closed")
	sessionsExpired  = obs.Default.Counter("server.sessions.expired_idle")
	sessionsDeadline = obs.Default.Counter("server.sessions.expired_deadline")
	sessionsEvicted  = obs.Default.Counter("server.sessions.evicted")
	sessionsRejected = obs.Default.Counter("server.sessions.rejected")
	// sessions.panicked counts engine goroutines that died by panic —
	// each one is a contained failure domain (state "failed"), never a
	// process crash; the chaos soak reconciles it against
	// chaos.injected.poison.
	sessionsPanicked = obs.Default.Counter("server.sessions.panicked")
	// sessions.recovered counts sessions rebuilt from the journal at
	// startup.
	sessionsRecovered = obs.Default.Counter("server.sessions.recovered")
	// sessions.corrupt counts sessions whose chunk log was damaged before
	// its torn tail — recovered as failed with the cause recorded, never
	// silently replayed from a truncated prefix.
	sessionsCorrupt = obs.Default.Counter("server.sessions.corrupt")
	// journal.chunks counts write-ahead chunk appends (fsynced before the
	// client's 200).
	journalChunks = obs.Default.Counter("server.journal.chunks")
	// journal.exports counts session journal exports served to fleet
	// gateways for handoff.
	journalExports = obs.Default.Counter("server.journal.exports")
	// sessions.empty_cleaned counts empty journals (crash mid-create)
	// reclaimed at startup instead of recovered.
	sessionsEmptyCleaned = obs.Default.Counter("server.sessions.empty_cleaned")
	// journal.follower.* track the replica-side half of fleet journal
	// replication: copies of other replicas' session journals held here
	// as failover sources (see follower.go). appends are fsynced chunk
	// receipts, exports are copies served back to a gateway whose owner
	// died disk-and-all, expired are idle copies reclaimed by the
	// janitor, and sessions gauges live copies.
	followerAppends  = obs.Default.Counter("server.journal.follower.appends")
	followerExports  = obs.Default.Counter("server.journal.follower.exports")
	followerExpired  = obs.Default.Counter("server.journal.follower.expired")
	followerSessions = obs.Default.Gauge("server.journal.follower.sessions")
	jobsRejected     = obs.Default.Counter("server.jobs.rejected")
	// jobs.timed_out counts batch analyses abandoned at their deadline;
	// their limiter slots free when the work returns.
	jobsTimedOut   = obs.Default.Counter("server.jobs.timed_out")
	framesAccepted = obs.Default.Counter("server.frames.accepted")
	httpErrors     = obs.Default.Counter("server.http.errors")

	flightsTimer        = obs.Default.Timer("server.http.flights")
	sessionsTimer       = obs.Default.Timer("server.http.sessions.create")
	framesTimer         = obs.Default.Timer("server.http.sessions.frames")
	reportTimer         = obs.Default.Timer("server.http.sessions.report")
	statusTimer         = obs.Default.Timer("server.http.sessions.status")
	journalExportTimer  = obs.Default.Timer("server.http.sessions.journal")
	followerAppendTimer = obs.Default.Timer("server.http.sessions.journal_append")
)

// maxLabelGroups caps the distinct server.sessions.opened.<group>
// counters. The group comes from a label the client chooses, so without
// a cap every distinct label would add a counter for good.
const maxLabelGroups = 32

// labelGroups is the set of groups given their own counter so far,
// process-wide like the registry that holds the counters.
var labelGroups = struct {
	sync.Mutex
	seen map[string]bool
}{seen: make(map[string]bool)}

// sessionsOpenedByGroup counts opened sessions per flight-label group
// (see labelGroup): workload drivers that label sessions
// "sweep/trial-…", "chaos-…", etc. become separately countable in the
// registry snapshot, so a sweep's sessions are attributable among
// whatever else the server is doing. Groups beyond the first
// maxLabelGroups share the "other" counter.
func sessionsOpenedByGroup(flight string) *obs.Counter {
	group := labelGroup(flight)
	labelGroups.Lock()
	if !labelGroups.seen[group] {
		if len(labelGroups.seen) < maxLabelGroups {
			labelGroups.seen[group] = true
		} else {
			group = "other"
		}
	}
	labelGroups.Unlock()
	return obs.Default.Counter("server.sessions.opened." + group)
}

// labelGroup maps a session's flight label to a bounded metric group:
// the prefix before the first "/" when the label carries one (the
// convention workload drivers use — "sweep/trial-0042" groups as
// "sweep"), "default" otherwise. Grouping on the client-chosen prefix
// rather than the whole label keeps counter cardinality bounded by the
// number of distinct workloads, not sessions. Characters the registry
// treats as separators are flattened.
func labelGroup(flight string) string {
	group := flight
	if i := strings.IndexByte(group, '/'); i >= 0 {
		group = group[:i]
	}
	group = strings.TrimSpace(group)
	if group == "" {
		return "default"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, group)
}
