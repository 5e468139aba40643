package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"soundboost/api"
	"soundboost/internal/faults"
	"soundboost/internal/journal"
)

// Follower journal copies: the replica-side half of fleet journal
// replication (see DESIGN.md "Replication & availability contract").
// A gateway serving a session on some OTHER replica streams each
// accepted chunk here too, so this replica holds a durable copy it can
// hand back if the owner — and the owner's disk — are both lost.
//
// Copies are keyed by the GATEWAY's session id (gw-unique, "g-…"), not
// a local backend id: this server also allocates its own "s-…" ids for
// sessions it owns, and the two namespaces collide across replicas.
// Copies live in a "followers/" subdirectory of the journal dir, in the
// standard journal format, so the existing export path can serve them
// and a future owner can replay them chunk-for-chunk.
//
// The ack contract mirrors the owner's publish path: an append is
// fsynced before the 200 (losing an acked copy would make the follower
// fallback a lie), a seq at or below the high-water mark is absorbed as
// a duplicate, and a seq that skips ahead is rejected with a 409 so the
// gateway reseeds the copy from a full export.

// followerCopy is one replicated session journal this server holds on
// behalf of the fleet.
type followerCopy struct {
	sj        *journal.Session
	lastSeq   int // replication high-water mark (chunk count, not chunk.Seq)
	lastTouch time.Time
	closed    bool // stream end seen (Chunk.Close); handle released
}

// openFollowerStore attaches the follower store under the journal dir.
// Copies surviving a restart are reattached lazily: the first append or
// export for an id rebuilds its entry from disk.
func (s *Server) openFollowerStore() error {
	st, err := journal.Open(filepath.Join(s.journal.Dir(), "followers"))
	if err != nil {
		return fmt.Errorf("server: follower store: %w", err)
	}
	s.followers = st
	s.followerCopies = make(map[string]*followerCopy)
	return nil
}

// followerCopyLocked resolves (or lazily rebuilds from disk) the copy
// for id. Caller holds s.followerMu. Returns nil when nothing exists
// yet and create is false.
func (s *Server) followerCopyLocked(id string, create bool) (*followerCopy, error) {
	if fc, ok := s.followerCopies[id]; ok {
		return fc, nil
	}
	fc := &followerCopy{lastTouch: s.now()}
	rec, err := s.followers.LoadSession(id)
	if err != nil && !create {
		return nil, nil
	}
	if err == nil {
		// A copy from a previous process life: resume past its chunks.
		// Replication seq is position in the stream, so the high-water
		// mark is simply how many chunks landed.
		fc.lastSeq = len(rec.Chunks)
	} else if !errors.Is(err, os.ErrNotExist) {
		// Empty (crash mid-create) or unreadable debris: start the copy
		// over — the gateway's reseed protocol refills it from a full
		// export, so nothing replicated is lost by discarding it.
		s.followers.RemoveSession(id)
	}
	sj, err := s.followers.Session(id)
	if err != nil {
		return nil, err
	}
	fc.sj = sj
	s.followerCopies[id] = fc
	followerSessions.Set(float64(len(s.followerCopies)))
	return fc, nil
}

// handleJournalAppend accepts one replicated chunk for a session served
// elsewhere in the fleet. Requires journaling (409 without -journal:
// a copy this server cannot persist is not a copy).
func (s *Server) handleJournalAppend(w http.ResponseWriter, r *http.Request) {
	span := followerAppendTimer.Start()
	defer span.Stop()
	id := r.PathValue("id")
	if s.followers == nil {
		s.writeError(w, fmt.Errorf("%w: journaling disabled, cannot hold follower copy %q",
			faults.ErrSessionOpen, id))
		return
	}
	// The follower reads no sample: it checks the chunk and journals
	// its bytes.
	var req api.CheckedAppend
	if err := api.DecodeRequest(r, &req); err != nil {
		s.writeBadRequest(w, err)
		return
	}
	if req.Seq <= 0 {
		s.writeBadRequest(w, fmt.Errorf("journal append %q: seq must be positive, got %d", id, req.Seq))
		return
	}

	s.followerMu.Lock()
	defer s.followerMu.Unlock()
	fc, err := s.followerCopyLocked(id, true)
	if err != nil {
		s.writeError(w, err)
		return
	}
	fc.lastTouch = s.now()
	if req.Seq <= fc.lastSeq {
		// Gateway retry after a lost ack: absorb, don't re-append.
		s.writeJSON(w, http.StatusOK, api.JournalAppendResponse{
			SchemaVersion: api.Version, ID: id, LastSeq: fc.lastSeq, Duplicate: true,
		})
		return
	}
	if req.Seq != fc.lastSeq+1 {
		// The gateway reacts to the gap by reseeding this copy from a
		// full export, so the hole never persists.
		s.writeError(w, fmt.Errorf("%w: follower copy %q got seq %d, want %d",
			faults.ErrSeqGap, id, req.Seq, fc.lastSeq+1))
		return
	}
	if fc.lastSeq == 0 {
		// First chunk of the copy: land the meta (the original
		// SessionRequest — everything a replay needs to rebuild the
		// engine) before any chunk is acknowledged.
		if err := fc.sj.WriteMeta(journal.Meta{ID: id, Req: req.Request, State: api.SessionOpen}); err != nil {
			s.writeError(w, fmt.Errorf("server: follower meta: %w", err))
			return
		}
	}
	if fc.closed {
		// The stream was closed but a straggler (post-reseed) append
		// arrived: reopen the log for append.
		sj, err := s.followers.Session(id)
		if err != nil {
			s.writeError(w, err)
			return
		}
		fc.sj, fc.closed = sj, false
	}
	// The chunk's own bytes within this body are what gets journaled;
	// once they are, the body goes back to the pool.
	err = fc.sj.AppendChecked(req.Chunk)
	req.Release()
	if err != nil {
		s.writeError(w, fmt.Errorf("server: follower append: %w", err))
		return
	}
	fc.lastSeq = req.Seq
	followerAppends.Inc()
	if req.Chunk.Close {
		// End of stream: checkpoint the state and release the handle —
		// the copy now only matters as a failover source.
		if err := fc.sj.WriteMeta(journal.Meta{ID: id, Req: req.Request, State: api.SessionDraining, LastSeq: fc.lastSeq}); err != nil {
			s.writeError(w, fmt.Errorf("server: follower meta: %w", err))
			return
		}
		fc.sj.CloseChunks()
		fc.closed = true
	}
	s.writeJSON(w, http.StatusOK, api.JournalAppendResponse{
		SchemaVersion: api.Version, ID: id, LastSeq: fc.lastSeq,
	})
}

// exportFollower serves a follower copy through the journal-export
// route when the id is not a session this server owns. Reports false
// when no copy exists (the caller falls back to its own error).
func (s *Server) exportFollower(w http.ResponseWriter, id string) bool {
	if s.followers == nil {
		return false
	}
	s.followerMu.Lock()
	defer s.followerMu.Unlock()
	fc, err := s.followerCopyLocked(id, false)
	if err != nil || fc == nil {
		return false
	}
	rec, err := s.followers.LoadSession(id)
	if err != nil {
		s.writeError(w, err)
		return true
	}
	if rec.Corrupt != "" {
		s.writeError(w, fmt.Errorf("%w: follower copy %q: %s", faults.ErrSessionFailed, id, rec.Corrupt))
		return true
	}
	// LastSeq on the wire is the CLIENT's chunk seq, not the replication
	// seq: scan the copy for the highest one so the new owner resumes at
	// the right place.
	lastSeq := 0
	for _, c := range rec.Chunks {
		if c.Seq > lastSeq {
			lastSeq = c.Seq
		}
	}
	followerExports.Inc()
	s.writeJSON(w, http.StatusOK, api.SessionJournal{
		SchemaVersion: api.Version,
		ID:            id,
		Request:       rec.Meta.Req,
		State:         rec.Meta.State,
		LastSeq:       lastSeq,
		Chunks:        rec.Chunks,
	})
	return true
}

// sweepFollowers ages out idle copies: the handle is released after the
// idle timeout (reattached lazily on the next touch) and the files are
// reclaimed after the hard session deadline — by then the session the
// copy shadows is long finished, so keeping a ghost journal only grows
// the disk. Called from the janitor.
func (s *Server) sweepFollowers(now time.Time) {
	if s.followers == nil {
		return
	}
	s.followerMu.Lock()
	defer s.followerMu.Unlock()
	for id, fc := range s.followerCopies {
		idle := now.Sub(fc.lastTouch)
		if idle > s.cfg.MaxSessionAge {
			fc.sj.Remove()
			delete(s.followerCopies, id)
			followerExpired.Inc()
			s.logf("follower copy %s reclaimed (idle %s)", id, idle.Round(time.Second))
		} else if idle > s.cfg.IdleTimeout && !fc.closed {
			fc.sj.CloseChunks()
			fc.closed = true
		}
	}
	followerSessions.Set(float64(len(s.followerCopies)))
}

// closeFollowers releases every copy's file handle at shutdown (the
// files stay: they are the durable copies).
func (s *Server) closeFollowers() {
	if s.followers == nil {
		return
	}
	s.followerMu.Lock()
	defer s.followerMu.Unlock()
	for _, fc := range s.followerCopies {
		fc.sj.CloseChunks()
	}
}
