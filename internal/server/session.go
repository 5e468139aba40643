package server

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"soundboost/api"
	"soundboost/internal/chaos"
	soundboost "soundboost/internal/core"
	"soundboost/internal/faults"
	"soundboost/internal/journal"
	"soundboost/internal/stream"
)

// chunkQueueDepth bounds the chunks a session holds between the frames
// handler and its engine goroutine. A full queue blocks the next frames
// post until the engine catches up: backpressure travels back over
// HTTP, and no accepted message is ever dropped. Eight chunks (4 s of a
// live 0.5 s-chunk stream) ride out an ack-latency hiccup such as a
// slow fsync without holding more than a few MB per session; a deeper
// queue would only delay the backpressure.
const chunkQueueDepth = 8

// session is one live (or recently finished) streaming RCA run: a
// bounded queue carrying the client's accepted chunks into a dedicated
// engine goroutine. Lifecycle: open (accepting frames) → draining
// (end-of-stream seen, engine flushing) → done (final report held until
// eviction), or → failed if the engine dies (the failure domain is this
// one session — see DESIGN.md "Failure domains & recovery").
type session struct {
	id      string
	flight  string
	eng     *stream.Engine // nil for sessions recovered in a terminal state
	created time.Time
	req     api.SessionRequest

	// in carries accepted chunks to the engine goroutine in acceptance
	// order; closeStream closes it (under pubMu, recorded in closed).
	in     chan api.FramesRequest
	closed bool

	// ingest is eng.Ingest, possibly wrapped by a chaos injector.
	ingest chaos.PubFunc
	inj    *chaos.Injector  // nil unless Config.SessionInjector supplied one
	sj     *journal.Session // nil unless journaling is enabled

	// done closes when the engine goroutine has stored its report or
	// died (or the session was recovered directly into a terminal
	// state).
	done chan struct{}

	// logf receives lifecycle lines (the server's Config.Logf; never nil).
	logf func(format string, a ...any)

	// pubMu serializes chunk acceptance so sequence-number bookkeeping,
	// the write-ahead journal and the queue see chunks in one total
	// order.
	pubMu sync.Mutex

	mu        sync.Mutex
	state     string
	lastTouch time.Time
	lastSeq   int
	failCause string
	report    soundboost.Report
	runErr    error
}

// newSession builds an open session and its engine from the open
// request. It is the one mapping of SessionRequest fields onto engine
// options, shared by creation and journal recovery. Buffer is accepted
// on the wire but has no effect: the chunk queue never drops.
func (s *Server) newSession(id string, req api.SessionRequest) (*session, error) {
	opts := []stream.Option{stream.WithFlightName(req.Flight)}
	if req.LagHorizonSeconds > 0 {
		opts = append(opts, stream.WithLagHorizon(req.LagHorizonSeconds))
	}
	if req.GapFill {
		opts = append(opts, stream.WithGapFill(true))
	}
	if req.Precision != "" {
		// Engine construction validates the mode.
		opts = append(opts, stream.WithPrecision(soundboost.Precision(req.Precision)))
	}
	eng, err := stream.New(s.an, req.SampleRateHz, opts...)
	if err != nil {
		return nil, err
	}
	now := s.now()
	return &session{
		id:        id,
		flight:    req.Flight,
		eng:       eng,
		created:   now,
		lastTouch: now,
		req:       req,
		in:        make(chan api.FramesRequest, chunkQueueDepth),
		ingest:    eng.Ingest,
		logf:      s.logf,
		state:     api.SessionOpen,
		done:      make(chan struct{}),
	}, nil
}

// startLocked registers a built session in the table and starts its engine
// goroutine. Caller holds s.mu.
func (s *Server) startLocked(sess *session) {
	s.sessions[sess.id] = sess
	sessionsActive.Set(float64(len(s.sessions)))
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sess.run()
	}()
}

// run feeds the queued chunks into the engine until the queue closes,
// then records the final verdict. It is the session's only long-lived
// goroutine, and the session's panic isolation domain: a panicking
// engine (poison pill, corrupted state, a bug) marks this one session
// failed with its cause recorded — the process, and every other
// session, keeps running.
func (s *session) run() {
	defer func() {
		if p := recover(); p != nil {
			sessionsPanicked.Inc()
			cause := fmt.Sprintf("engine panic: %v", p)
			s.mu.Lock()
			s.state = api.SessionFailed
			s.failCause = cause
			s.runErr = fmt.Errorf("%w: %s", faults.ErrSessionFailed, cause)
			s.mu.Unlock()
			// Closing done releases any post blocked on the full queue
			// with the failure. Keep the stack out of the HTTP response
			// but not out of the log.
			close(s.done)
			s.persistMeta()
			s.logf("session %s failed: %s\n%s", s.id, cause, debug.Stack())
		}
	}()
	for req := range s.in {
		for _, m := range stream.Events(req.ToStream()) {
			_ = s.ingest(m)
		}
		s.eng.Advance()
	}
	if s.inj != nil {
		// Release any message the schedule held back for reordering
		// before the engine finalizes.
		_ = s.inj.Flush(s.eng.Ingest)
	}
	report, err := s.eng.Finish()
	s.mu.Lock()
	s.report = report
	s.runErr = err
	s.state = api.SessionDone
	s.mu.Unlock()
	close(s.done)
	s.persistMeta()
}

// persistMeta snapshots the session into its journal (no-op when
// journaling is off). Called on every lifecycle transition and by the
// janitor as a periodic checkpoint.
func (s *session) persistMeta() {
	if s.sj == nil {
		return
	}
	s.mu.Lock()
	meta := journal.Meta{
		ID:        s.id,
		Req:       s.req,
		State:     s.state,
		LastSeq:   s.lastSeq,
		FailCause: s.failCause,
	}
	if s.state == api.SessionDone && s.runErr == nil {
		r := api.ReportFromCore(s.report)
		meta.Report = &r
	}
	s.mu.Unlock()
	if s.eng != nil {
		meta.Engine = api.EngineStatusFromStream(s.eng.Status())
	}
	_ = s.sj.WriteMeta(meta)
}

// touch refreshes the idle clock (frame activity only — status polls do
// not keep a session alive).
func (s *session) touch(now time.Time) {
	s.mu.Lock()
	s.lastTouch = now
	s.mu.Unlock()
}

// closeStream ends the session's input stream: open → draining, chunk
// queue closed so the engine drains it, flushes and finalizes.
// Idempotent; reports whether this call performed the transition.
func (s *session) closeStream() bool {
	s.mu.Lock()
	if s.state != api.SessionOpen {
		s.mu.Unlock()
		return false
	}
	s.state = api.SessionDraining
	s.mu.Unlock()
	s.pubMu.Lock()
	s.closed = true
	close(s.in)
	if s.sj != nil {
		s.sj.CloseChunks()
	}
	s.pubMu.Unlock()
	s.persistMeta()
	return true
}

// snapshot returns the session's wire status.
func (s *session) snapshot(now time.Time) api.SessionStatus {
	s.mu.Lock()
	state := s.state
	last := s.lastTouch
	lastSeq := s.lastSeq
	failCause := s.failCause
	s.mu.Unlock()
	st := api.SessionStatus{
		SchemaVersion: api.Version,
		ID:            s.id,
		Flight:        s.flight,
		State:         state,
		AgeSeconds:    now.Sub(s.created).Seconds(),
		IdleSeconds:   now.Sub(last).Seconds(),
		LastSeq:       lastSeq,
		FailCause:     failCause,
	}
	if s.eng != nil {
		st.Engine = api.EngineStatusFromStream(s.eng.Status())
	}
	return st
}

// failed is the error a post gets from a session whose engine died.
func (s *session) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Errorf("%w: %q: %s", faults.ErrSessionFailed, s.id, s.failCause)
}

// publish accepts one FramesRequest into the session's chunk queue and
// reports how many messages it carries. A full queue blocks until the
// engine takes a chunk; a session that fails meanwhile answers with
// ErrSessionFailed.
//
// When the request carries a sequence number (Seq > 0) acceptance is
// idempotent: a chunk at or below the accepted high-water mark is
// acknowledged without re-queueing (duplicate=true) so a client that
// lost an ack can blindly resend, and a chunk that skips ahead is
// rejected with faults.ErrSeqGap. With journaling on, an accepted chunk
// is fsynced to the write-ahead log before it is queued.
func (s *session) publish(req api.FramesRequest) (accepted int, duplicate bool, err error) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if s.closed {
		return 0, false, fmt.Errorf("%w: %q", faults.ErrSessionClosed, s.id)
	}
	if req.Seq > 0 {
		s.mu.Lock()
		last := s.lastSeq
		s.mu.Unlock()
		if req.Seq <= last {
			return 0, true, nil
		}
		if req.Seq != last+1 {
			return 0, false, fmt.Errorf("%w: got seq %d, want %d", faults.ErrSeqGap, req.Seq, last+1)
		}
	}
	select {
	case <-s.done:
		return 0, false, s.failed()
	default:
	}
	if s.sj != nil {
		if err := s.sj.AppendChunk(req); err != nil {
			return 0, false, fmt.Errorf("server: journal append: %w", err)
		}
		journalChunks.Inc()
	}
	// pubMu stays held while the queue is full, so journal order is
	// queue order; the wait ends when the engine takes a chunk or dies.
	select {
	case s.in <- req:
	case <-s.done:
		return 0, false, s.failed()
	}
	if req.Seq > 0 {
		s.mu.Lock()
		s.lastSeq = req.Seq
		s.mu.Unlock()
	}
	return len(req.Audio) + len(req.IMU) + len(req.GPS), false, nil
}

// stateNow returns the current lifecycle state.
func (s *session) stateNow() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// createSession builds, registers, and starts a session. It enforces the
// table bound: when full, the least-recently-touched finished session is
// evicted; if every slot holds a live session the request is shed with
// ErrCapacity (HTTP 429).
func (s *Server) createSession(req api.SessionRequest) (*session, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errShuttingDown
	}
	if len(s.sessions) >= s.cfg.MaxSessions && !s.evictLocked() {
		sessionsRejected.Inc()
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d live sessions (cap %d)",
			faults.ErrCapacity, len(s.sessions), s.cfg.MaxSessions)
	}
	s.nextID++
	id := fmt.Sprintf("s-%08d", s.nextID)
	s.mu.Unlock()

	// Engine construction validates the sample rate and precision
	// against the calibrated model (422 on a mismatch) outside the table
	// lock (it allocates filters).
	sess, err := s.newSession(id, req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", faults.ErrUnprocessable, err)
	}
	if s.cfg.SessionInjector != nil {
		if inj := s.cfg.SessionInjector(id, req.Flight); inj != nil {
			sess.inj = inj
			sess.ingest = inj.Publisher(sess.eng.Ingest)
		}
	}
	if s.journal != nil {
		sj, err := s.journal.Session(id)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		sess.sj = sj
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		if sess.sj != nil {
			sess.sj.Remove()
		}
		return nil, errShuttingDown
	}
	if len(s.sessions) >= s.cfg.MaxSessions && !s.evictLocked() {
		sessionsRejected.Inc()
		n := len(s.sessions)
		s.mu.Unlock()
		if sess.sj != nil {
			sess.sj.Remove()
		}
		return nil, fmt.Errorf("%w: %d live sessions (cap %d)", faults.ErrCapacity, n, s.cfg.MaxSessions)
	}
	s.startLocked(sess)
	s.mu.Unlock()

	sessionsOpened.Inc()
	sessionsOpenedByGroup(req.Flight).Inc()
	sess.persistMeta()
	s.logf("session %s opened (flight %q, %g Hz)", id, req.Flight, req.SampleRateHz)
	return sess, nil
}

// evictLocked removes the least-recently-touched finished session to
// make room; it reports false when every session is still live. Caller
// holds s.mu.
func (s *Server) evictLocked() bool {
	var victim *session
	for _, sess := range s.sessions {
		if st := sess.stateNow(); st != api.SessionDone && st != api.SessionFailed {
			continue
		}
		if victim == nil || sess.lastTouchLocked().Before(victim.lastTouchLocked()) {
			victim = sess
		}
	}
	if victim == nil {
		return false
	}
	delete(s.sessions, victim.id)
	if victim.sj != nil {
		victim.sj.Remove()
	}
	sessionsActive.Set(float64(len(s.sessions)))
	sessionsEvicted.Inc()
	s.logf("session %s evicted (LRU, table full)", victim.id)
	return true
}

// lastTouchLocked reads the idle clock under the session lock.
func (s *session) lastTouchLocked() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTouch
}

// lookup resolves a session id.
func (s *Server) lookup(id string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", faults.ErrSessionNotFound, id)
	}
	return sess, nil
}

// janitor sweeps open sessions against the idle timeout and hard
// deadline until stop closes.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
		}
		now := s.now()
		s.mu.Lock()
		open := make([]*session, 0, len(s.sessions))
		for _, sess := range s.sessions {
			open = append(open, sess)
		}
		s.mu.Unlock()
		for _, sess := range open {
			sess.mu.Lock()
			state := sess.state
			idle := now.Sub(sess.lastTouch)
			age := now.Sub(sess.created)
			sess.mu.Unlock()
			if state == api.SessionOpen {
				switch {
				case age > s.cfg.MaxSessionAge:
					if sess.closeStream() {
						sessionsDeadline.Inc()
						s.logf("session %s closed: hard deadline (%s)", sess.id, s.cfg.MaxSessionAge)
					}
				case idle > s.cfg.IdleTimeout:
					if sess.closeStream() {
						sessionsExpired.Inc()
						s.logf("session %s closed: idle for %s", sess.id, idle.Round(time.Millisecond))
					}
				}
			}
			// Periodic checkpoint: refresh the journaled engine snapshot so
			// a crash loses at most one sweep interval of progress metadata
			// (never chunks — those are write-ahead).
			if sess.sj != nil && state == api.SessionOpen {
				sess.persistMeta()
			}
		}
		s.sweepFollowers(now)
	}
}
