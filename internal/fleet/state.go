package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"soundboost/api"
	"soundboost/internal/journal"
)

// Gateway routing-state checkpoint: with Config.StatePath set, every
// placement change (session created, migrated, parked, revived) rewrites
// an fsync'd state file holding gwID→replica placements, follower sets,
// the id allocator, and a monotonic epoch. A warm standby (-standby)
// tails the lease file beside it and, on lease expiry, rebuilds a
// gateway from the checkpoint — so a gateway kill mid-flight is
// survivable without clients ever learning a new address.
//
// Checkpoints are placement-granular on purpose: per-chunk state
// (last_seq, replication marks) is NOT persisted, because the replicas
// themselves are the durable source — a restored gateway re-learns
// last_seq from the owner's status and reseeds follower marks from a
// live export. Persisting them would put an fsync on the chunk hot path
// for state that is reconstructible anyway.

// RouteState is one session's checkpointed placement.
type RouteState struct {
	GwID      string   `json:"gw_id"`
	Replica   string   `json:"replica"`
	BackendID string   `json:"backend_id"`
	Followers []string `json:"followers,omitempty"`
	// Parked marks a restored session no replica could be found for —
	// served as 503 + Retry-After until a revive succeeds.
	Parked  bool               `json:"parked,omitempty"`
	Request api.SessionRequest `json:"request"`
}

// State is the gateway's checkpointed routing state.
type State struct {
	SchemaVersion string       `json:"schema_version"`
	Epoch         int          `json:"epoch"`
	NextID        int          `json:"next_id"`
	Routes        []RouteState `json:"routes"`
}

// checkpoint snapshots the placement mirror and rewrites the state file
// (journal.WriteFileAtomic). No-op without StatePath. Safe to call
// with any rt.mu held: it takes only g.stateMu (serializing writers in
// epoch order) and g.mu (briefly, for the snapshot) — never a route
// lock, since the mirror is maintained at mutation sites instead.
func (g *Gateway) checkpoint() {
	if g.cfg.StatePath == "" {
		return
	}
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	g.mu.Lock()
	g.epoch++
	st := State{SchemaVersion: api.Version, Epoch: g.epoch, NextID: g.nextID}
	st.Routes = make([]RouteState, 0, len(g.placed))
	for _, rs := range g.placed {
		st.Routes = append(st.Routes, rs)
	}
	g.mu.Unlock()
	sort.Slice(st.Routes, func(i, j int) bool { return st.Routes[i].GwID < st.Routes[j].GwID })
	raw, err := json.Marshal(st)
	if err == nil {
		err = journal.WriteFileAtomic(g.cfg.StatePath, append(raw, '\n'))
	}
	if err != nil {
		g.logf("state checkpoint failed: %v", err)
		return
	}
	stateCheckpoints.Inc()
}

// notePlacementLocked updates the placement mirror for rt. Caller holds
// g.mu AND knows rt's current placement (typically holding rt.mu, or
// owning the route before it is published).
func (g *Gateway) notePlacementLocked(rt *route) {
	if g.routes[rt.gwID] != rt {
		return // evicted while a migration held it
	}
	g.placed[rt.gwID] = RouteState{
		GwID:      rt.gwID,
		Replica:   rt.replica,
		BackendID: rt.backendID,
		Followers: append([]string(nil), rt.followers...),
		Parked:    rt.parked,
		Request:   rt.req,
	}
}

// recordPlacement mirrors rt's placement and checkpoints. Caller may
// hold rt.mu but must not hold g.mu.
func (g *Gateway) recordPlacement(rt *route) {
	g.mu.Lock()
	g.notePlacementLocked(rt)
	g.mu.Unlock()
	g.checkpoint()
}

// loadState reads a checkpoint file, compact or indented.
func loadState(path string) (State, error) {
	var st State
	raw, err := os.ReadFile(path)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(bytes.TrimSpace(raw), &st); err != nil {
		return st, fmt.Errorf("fleet: state file %s: %w", path, err)
	}
	return st, nil
}

// restore rebuilds routes from the checkpoint at StatePath — the warm
// standby's takeover path, and a restarted primary's own recovery. Each
// restored route points at its checkpointed replica and is marked for
// a replication reseed (the copies' high-water marks died with the old
// process); verification and re-placement happen in verifyRestored once
// construction finishes.
func (g *Gateway) restore() error {
	st, err := loadState(g.cfg.StatePath)
	if os.IsNotExist(err) {
		return nil // first life: nothing to restore
	}
	if err != nil {
		return err
	}
	g.nextID, g.epoch = st.NextID, st.Epoch
	for _, rs := range st.Routes {
		rt := &route{
			gwID:       rs.GwID,
			replica:    rs.Replica,
			backendID:  rs.BackendID,
			req:        rs.Request,
			followers:  append([]string(nil), rs.Followers...),
			repAcked:   make(map[string]int, len(rs.Followers)),
			parked:     rs.Parked,
			needReseed: true,
		}
		g.routes[rs.GwID] = rt
		g.placed[rs.GwID] = rs
		if rs.Parked {
			sessionsParked.Add(1)
		}
	}
	g.logf("restored %d session(s) from %s (epoch %d)", len(st.Routes), g.cfg.StatePath, st.Epoch)
	return nil
}

// verifyRestored confirms each restored placement against its replica:
// a reachable owner re-teaches last_seq; an unreachable one triggers
// the normal failover (live export → journal dir → follower copies);
// a session no replica can serve is parked, not failed — clients see
// 503 + Retry-After and every request retries the revive.
func (g *Gateway) verifyRestored() {
	rts := g.routeList()
	for _, rt := range rts {
		rt.mu.Lock()
		if !rt.parked {
			st, err := g.backend(rt).Status()
			switch {
			case err == nil:
				rt.lastSeq = st.LastSeq
			case failoverWorthy(err):
				if ferr := g.failoverLocked(rt); ferr != nil {
					g.parkLocked(rt, ferr)
				}
			}
		}
		rt.mu.Unlock()
	}
}

// parkLocked marks rt unplaceable: kept, checkpointed, and served as
// 503 + Retry-After until a later revive finds it a replica. Caller
// holds rt.mu.
func (g *Gateway) parkLocked(rt *route, cause error) {
	if rt.parked {
		return
	}
	rt.parked = true
	sessionsParked.Add(1)
	g.logf("session %s parked: %v", rt.gwID, cause)
	g.recordPlacement(rt)
}

// reviveLocked tries to bring a parked session back by running the
// normal failover path. Caller holds rt.mu.
func (g *Gateway) reviveLocked(rt *route) error {
	if err := g.failoverLocked(rt); err != nil {
		return err
	}
	rt.parked = false
	sessionsParked.Add(-1)
	g.logf("session %s revived on %s", rt.gwID, rt.replica)
	g.recordPlacement(rt)
	return nil
}

// --- lease heartbeat ---

// leasePath returns the lease file beside a state path.
func leasePath(statePath string) string { return statePath + ".lease" }

// leaseLoop renews the primary's lease every LeaseInterval until
// shutdown. The standby declares the lease expired after LeaseTTL
// without a change — both sides measure the gap on their own clock, so
// nothing couples the two hosts' clocks.
func (g *Gateway) leaseLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.LeaseInterval)
	defer t.Stop()
	n := 0
	for {
		n++
		if err := journal.WriteFileAtomic(leasePath(g.cfg.StatePath), []byte(strconv.Itoa(os.Getpid())+":"+strconv.Itoa(n)+"\n")); err != nil {
			g.logf("lease renew failed: %v", err)
		}
		select {
		case <-g.probeStop:
			return
		case <-t.C:
		}
	}
}
