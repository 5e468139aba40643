package fleet

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"soundboost/api"
	"soundboost/internal/httpretry"
)

// Journal replication: the gateway streams every owner-acknowledged
// chunk to R−1 follower replicas (POST /v1/sessions/{gwID}/journal/
// append), so a session's write-ahead log survives the loss of the
// owner AND its disk — exportJournal falls back to the freshest
// follower copy and the replay path reproduces the verdict unchanged.
//
// The gateway drives the stream; replicas never talk to each other.
// Copies are keyed by the gateway session id (fleet-unique), and the
// replication seq is the chunk's position in the owner's accept order —
// independent of the client's own chunk Seq, which optional-idempotency
// clients may not even send. Followers fsync before acking, absorb
// duplicates at or below their high-water mark, and 409 a gap; the
// gateway answers a gap (or a takeover, where the mark is unknown) by
// reseeding the copy from a full live export, under which duplicates
// absorb harmlessly.
//
// Replication is best-effort per chunk and never fails the client: the
// owner's fsynced journal already made the chunk durable, so a follower
// falling behind is a visible (fleet.replication.lag_max) reduction in
// failure coverage, not an error. Appends ride a tighter retry budget
// than client forwarding — the client is waiting.

// pickFollowers chooses up to Replication−1 followers for rt under
// owner: rt's current followers that are still candidates first (their
// copies are already warm), then the rest of rt's candidates — never
// owner, and never exclude, the replica the session just left.
func (g *Gateway) pickFollowers(rt *route, owner, exclude string) []string {
	n := g.cfg.Replication - 1
	fresh := g.candidates(rt.gwID, owner, exclude)
	var out []string
	for _, f := range slices.Concat(rt.followers, fresh) {
		if len(out) < n && slices.Contains(fresh, f) && !slices.Contains(out, f) {
			out = append(out, f)
		}
	}
	return out
}

// appendBody sets body to the JournalAppend replicating chunk as the
// session's seq-th append. A chunk the gateway checked in its client's
// body is spliced in as the client sent it, never re-encoded.
func appendBody(body *api.Body, rt *route, seq int, chunk api.CheckedChunk) error {
	return body.EncodeJournalAppend(api.CheckedAppend{
		SchemaVersion: api.Version,
		Seq:           seq,
		Request:       rt.req,
		Chunk:         chunk,
	})
}

// appendFollower sends one JournalAppend body to one follower.
func (g *Gateway) appendFollower(rt *route, follower string, body []byte) error {
	var resp api.JournalAppendResponse
	return g.repClient.SessionAt(g.base(follower), rt.gwID).Do("POST", "/journal/append", body, &resp)
}

// replicateLocked streams one newly owner-acknowledged chunk to the
// session's followers. Caller holds rt.mu; duplicate is the owner's
// verdict on the chunk (an absorbed resend carries nothing new — unless
// a reseed is pending, in which case the full export covers it). All
// followers get one append body, in a pooled buffer released once the
// last Do sending it has returned.
func (g *Gateway) replicateLocked(rt *route, chunk api.CheckedChunk, duplicate bool) {
	if g.cfg.Replication <= 1 {
		return
	}
	if rt.needReseed {
		// The copies' high-water marks are unknown (gateway takeover) or
		// known-holed (a follower 409'd a gap): rebuild them from a full
		// live export, which includes this chunk too.
		exp, err := g.liveExport(rt)
		if err != nil {
			replicationErrors.Inc()
			g.logf("session %s: reseed export failed: %v", rt.gwID, err)
			return
		}
		g.seedFollowersLocked(rt, exp)
		return
	}
	if duplicate {
		return
	}
	rt.repSeq++
	var body api.Body
	defer body.Release()
	if err := appendBody(&body, rt, rt.repSeq, chunk); err != nil {
		replicationErrors.Inc()
		g.logf("session %s: encode seq %d: %v", rt.gwID, rt.repSeq, err)
		g.updateLagLocked(rt)
		return
	}
	for _, f := range rt.followers {
		if f == rt.replica || !g.health.Up(f) {
			continue // lag accrues; a later reseed or append catches up
		}
		if err := g.appendFollower(rt, f, body.Bytes()); err != nil {
			replicationErrors.Inc()
			var se *httpretry.StatusError
			if errors.As(err, &se) && se.Code == api.CodeConflict {
				// The follower's copy has a hole (it restarted, or we
				// did): schedule a full reseed rather than papering over
				// the gap.
				rt.needReseed = true
			}
			g.logf("session %s: replicate seq %d to %s failed: %v", rt.gwID, rt.repSeq, f, err)
			continue
		}
		rt.repAcked[f] = rt.repSeq
		replicationAppends.Inc()
	}
	g.updateLagLocked(rt)
}

// seedFollowersLocked replays a full journal export into every
// follower, bringing each copy to the owner's high-water mark.
// Duplicates absorb on the follower side, so seeding over a partial
// copy is safe. Every append is encoded into one pooled buffer. Caller
// holds rt.mu.
func (g *Gateway) seedFollowersLocked(rt *route, exp api.SessionJournal) {
	if g.cfg.Replication <= 1 {
		return
	}
	if len(rt.followers) == 0 {
		rt.followers = g.pickFollowers(rt, rt.replica, "")
	}
	if rt.repAcked == nil {
		rt.repAcked = make(map[string]int, len(rt.followers))
	}
	rt.repSeq = len(exp.Chunks)
	rt.needReseed = false
	var body api.Body
	defer body.Release()
	for _, f := range rt.followers {
		if f == rt.replica || !g.health.Up(f) {
			continue
		}
		seeded := true
		for i, c := range exp.Chunks {
			chunk, err := api.CheckChunk(c)
			if err == nil {
				err = appendBody(&body, rt, i+1, chunk)
			}
			if err == nil {
				err = g.appendFollower(rt, f, body.Bytes())
			}
			if err != nil {
				replicationErrors.Inc()
				g.logf("session %s: seed chunk %d to %s failed: %v", rt.gwID, i+1, f, err)
				seeded = false
				break
			}
		}
		if seeded {
			rt.repAcked[f] = rt.repSeq
			replicationAppends.Add(int64(len(exp.Chunks)))
		}
	}
	g.updateLagLocked(rt)
}

// updateLagLocked records the session's replication lag (owner
// high-water mark minus the slowest follower's) in the fleet-wide
// gauges. Caller holds rt.mu.
func (g *Gateway) updateLagLocked(rt *route) {
	lag := 0
	for _, f := range rt.followers {
		if f == rt.replica {
			continue
		}
		if l := rt.repSeq - rt.repAcked[f]; l > lag {
			lag = l
		}
	}
	replicationLags.move(rt.prevLag, lag)
	rt.prevLag = lag
}

// lagTracker counts lagging routes by lag. It feeds the two replication
// gauges, so their number stays fixed however many sessions pass
// through: behind is how many routes lag, lag_max the largest lag. It is
// process-wide, like the registry holding the gauges.
type lagTracker struct {
	mu     sync.Mutex
	routes map[int]int // lag (> 0) → routes at that lag
}

var replicationLags = lagTracker{routes: make(map[int]int)}

// move re-files one route from lag from to lag to.
func (t *lagTracker) move(from, to int) {
	if from == to {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if from > 0 {
		if t.routes[from]--; t.routes[from] == 0 {
			delete(t.routes, from)
		}
	}
	if to > 0 {
		t.routes[to]++
	}
	behind, worst := 0, 0
	for lag, n := range t.routes {
		behind += n
		worst = max(worst, lag)
	}
	replicationBehind.Set(float64(behind))
	replicationLagMax.Set(float64(worst))
}

// liveExport fetches the session's journal from its current owner.
func (g *Gateway) liveExport(rt *route) (api.SessionJournal, error) {
	var exp api.SessionJournal
	err := g.backend(rt).Do("GET", "/journal", nil, &exp)
	return exp, err
}

// followerExport fetches the freshest follower copy of the session's
// journal — the failover source when the owner and its disk are both
// gone. Copies are keyed by gateway id and live behind the same journal
// route; the one with the most chunks wins (followers can lag, never
// lead, the owner).
func (g *Gateway) followerExport(rt *route) (api.SessionJournal, error) {
	var (
		best  api.SessionJournal
		found bool
		errs  []error
	)
	for _, f := range rt.followers {
		if f == rt.replica || !g.health.Up(f) {
			continue
		}
		var exp api.SessionJournal
		if err := g.client.SessionAt(g.base(f), rt.gwID).Do("GET", "/journal", nil, &exp); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", f, err))
			continue
		}
		if !found || len(exp.Chunks) > len(best.Chunks) {
			best, found = exp, true
		}
	}
	if !found {
		return best, fmt.Errorf("fleet: no follower copy of %s available: %v", rt.gwID, errs)
	}
	return best, nil
}
