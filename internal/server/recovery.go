package server

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"soundboost/api"
	"soundboost/internal/faults"
	"soundboost/internal/journal"
)

// Crash recovery: with Config.JournalDir set, a restarted server rebuilds
// its session table from the journal before accepting traffic. Recovery
// (journal.Store.Load + Server.recoverSessions) replays each journaled
// session's chunk log through the normal publish path into a fresh
// engine, which is deterministic, so a recovered session's verdict is
// the verdict the original would have produced. Finished sessions skip
// the replay: their report is served straight from meta. A session whose
// chunk log is damaged before its torn tail (acknowledged chunks
// unreadable) is recovered as FAILED with the corruption recorded as its
// cause — silently replaying a truncated log would serve a verdict the
// client's acknowledged stream never produced.

// sessionID extracts the numeric suffix of a session id ("s-00000042" →
// 42, ok) so recovery can advance the id allocator past every journaled
// session.
func sessionID(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "s-"))
	return n, err == nil && n > 0
}

// recoverSessions rebuilds the session table from the journal at
// startup. Sessions that finished before the crash are restored straight
// into their terminal state (report or failure cause served from meta);
// interrupted sessions get a fresh engine and their chunk log replayed
// through the normal publish path — deterministic, so the recovered
// verdict is the one the original run would have produced. Open sessions
// stay open: the client polls status, reads last_seq, and resumes from
// the next chunk.
func (s *Server) recoverSessions() {
	recs, errs := s.journal.Load()
	for _, err := range errs {
		// An empty journal is the debris of a crash inside session
		// creation — nothing was acknowledged, so it is a clean new
		// session, not a corrupt one: reclaim the files instead of
		// carrying a ghost forward.
		var empty *journal.EmptyJournalError
		if errors.As(err, &empty) {
			s.journal.RemoveSession(empty.ID)
			sessionsEmptyCleaned.Inc()
			s.logf("journal: session %s never started (empty journal), cleaned up", empty.ID)
			continue
		}
		s.logf("journal: %v", err)
	}
	for _, rec := range recs {
		if n, ok := sessionID(rec.Meta.ID); ok && n > s.nextID {
			s.nextID = n
		}
		if err := s.recoverSession(rec); err != nil {
			s.logf("journal: session %s not recovered: %v", rec.Meta.ID, err)
			continue
		}
		sessionsRecovered.Inc()
	}
}

// recoverTerminal registers a session directly in a terminal state with
// no engine — the journal already holds the outcome (or, for corrupt
// logs, the reason there cannot be one).
func (s *Server) recoverTerminal(meta journal.Meta) error {
	now := s.now()
	sess := &session{
		id: meta.ID, flight: meta.Req.Flight,
		created: now, lastTouch: now, req: meta.Req,
		logf:  s.logf,
		state: meta.State, lastSeq: meta.LastSeq,
		failCause: meta.FailCause,
		done:      make(chan struct{}),
	}
	if meta.State == api.SessionFailed {
		sess.runErr = fmt.Errorf("%w: %s", faults.ErrSessionFailed, meta.FailCause)
	} else {
		sess.report = meta.Report.ToCore()
	}
	close(sess.done)
	sj, err := s.journal.Session(meta.ID)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	sj.CloseChunks()
	sess.sj = sj
	sess.persistMeta()
	s.mu.Lock()
	s.sessions[meta.ID] = sess
	sessionsActive.Set(float64(len(s.sessions)))
	s.mu.Unlock()
	s.logf("session %s recovered (%s)", meta.ID, meta.State)
	return nil
}

// recoverSession rebuilds one journaled session.
func (s *Server) recoverSession(rec journal.Recovered) error {
	meta := rec.Meta
	now := s.now()

	// Terminal states need no engine: the journal already holds the
	// outcome.
	if meta.State == api.SessionDone || meta.State == api.SessionFailed {
		if meta.State == api.SessionDone && meta.Report == nil {
			// Finished but the report never hit the meta (crash inside the
			// transition). Fall through and recompute it by replay.
			meta.State = api.SessionDraining
		} else {
			return s.recoverTerminal(meta)
		}
	}

	// A chunk log damaged before its torn tail means acknowledged chunks
	// are unreadable: a replay cannot reproduce the stream the client
	// believes was accepted. Surface the session as failed with the
	// corruption as its recorded cause — it must not vanish, and it must
	// not serve a verdict computed from a silently truncated log.
	if rec.Corrupt != "" {
		sessionsCorrupt.Inc()
		meta.State = api.SessionFailed
		meta.FailCause = "journal unreadable: " + rec.Corrupt
		meta.Report = nil
		s.logf("session %s journal corrupt: %s", meta.ID, rec.Corrupt)
		return s.recoverTerminal(meta)
	}

	// Interrupted session: rebuild the engine and replay the chunk log.
	// The replay blocks on the chunk queue like any client, so nothing
	// is dropped however fast the log is read.
	sess, err := s.newSession(meta.ID, meta.Req)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.startLocked(sess)
	s.mu.Unlock()

	// Replay with journaling detached: these chunks are already on disk.
	closeSeen := false
	for _, req := range rec.Chunks {
		if _, _, err := sess.publish(&req); err != nil {
			s.logf("session %s replay: %v", meta.ID, err)
			break
		}
		if req.Close {
			closeSeen = true
		}
	}

	// Reattach the journal (append mode) so the resumed session keeps
	// logging new chunks.
	sj, err := s.journal.Session(meta.ID)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	sess.sj = sj
	if closeSeen || meta.State != api.SessionOpen {
		sess.closeStream()
	} else {
		sess.persistMeta()
	}
	s.logf("session %s recovered (%d chunk(s) replayed, last_seq %d)",
		meta.ID, len(rec.Chunks), sess.snapshot(now).LastSeq)
	return nil
}
