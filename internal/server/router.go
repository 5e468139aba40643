package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"soundboost/api"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/faults"
)

// routes builds the /v1 route table. This is the server's router layer:
// every wire-visible path is registered here and nowhere else, so the
// fleet gateway (which re-serves the same surface) has one place to
// mirror.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /"+api.Version+"/flights", s.handleFlights)
	mux.HandleFunc("POST /"+api.Version+"/sessions", s.handleSessionCreate)
	mux.HandleFunc("POST /"+api.Version+"/sessions/{id}/frames", s.handleFrames)
	mux.HandleFunc("GET /"+api.Version+"/sessions/{id}/report", s.handleReport)
	mux.HandleFunc("GET /"+api.Version+"/sessions/{id}/status", s.handleStatus)
	mux.HandleFunc("GET /"+api.Version+"/sessions/{id}/journal", s.handleJournalExport)
	mux.HandleFunc("POST /"+api.Version+"/sessions/{id}/journal/append", s.handleJournalAppend)
	mux.HandleFunc("GET /"+api.Version+"/healthz", s.handleHealthz)
	return mux
}

// handleFlights runs batch RCA over an uploaded .sbf recording. The
// request body is the raw flight file; admission is bounded by the job
// limiter and sheds with 429 when saturated.
func (s *Server) handleFlights(w http.ResponseWriter, r *http.Request) {
	span := flightsTimer.Start()
	defer span.Stop()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.writeError(w, errShuttingDown)
		return
	}
	if !s.jobs.TryAcquire() {
		jobsRejected.Inc()
		s.writeError(w, fmt.Errorf("%w: %d batch jobs in flight (cap %d)",
			faults.ErrCapacity, s.jobs.InUse(), s.jobs.Cap()))
		return
	}
	start := s.now()
	flight, err := dataset.Load(r.Body)
	if err != nil {
		s.jobs.Release()
		s.writeError(w, fmt.Errorf("%w: %v", faults.ErrUnprocessable, err))
		return
	}

	// Run the analysis on a goroutine that owns the limiter slot, so a
	// wedged or slow analysis cannot hold the slot past its own return
	// even after the handler gives up on it: the slot frees exactly when
	// the work stops, and a panic inside the analyzer frees it too.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.BatchTimeout)
	defer cancel()
	type result struct {
		report soundboost.Report
		err    error
	}
	ch := make(chan result, 1) // buffered: the handler may be gone
	go func() {
		defer s.jobs.Release()
		defer func() {
			if p := recover(); p != nil {
				ch <- result{err: fmt.Errorf("batch analysis panic: %v", p)}
			}
		}()
		report, err := s.an.Analyze(flight)
		ch <- result{report, err}
	}()
	select {
	case res := <-ch:
		if res.err != nil {
			s.writeError(w, res.err)
			return
		}
		s.writeJSON(w, http.StatusOK, api.FlightResponse{
			Report:         api.ReportFromCore(res.report),
			ElapsedSeconds: s.now().Sub(start).Seconds(),
		})
	case <-ctx.Done():
		// Client gone or deadline hit: shed the request. The analysis
		// keeps its slot until it returns — that is backpressure working,
		// not a leak — and new requests see 429 while it unwinds.
		jobsTimedOut.Inc()
		s.writeError(w, fmt.Errorf("%w after %s", faults.ErrTimeout,
			s.now().Sub(start).Round(time.Millisecond)))
	}
}

// handleSessionCreate opens a streaming session.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	span := sessionsTimer.Start()
	defer span.Stop()
	var req api.SessionRequest
	if err := api.DecodeStrict(r.Body, &req); err != nil {
		s.writeBadRequest(w, err)
		return
	}
	sess, err := s.createSession(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, api.SessionResponse{
		SchemaVersion: api.Version,
		ID:            sess.id,
		State:         sess.stateNow(),
	})
}

// handleFrames accepts one batch of telemetry into a session's chunk
// queue. The engine goroutine merges the three streams by timestamp
// (stream.Events, the order stream.Replay publishes in) and ingests
// them in order. A full queue holds the post until the engine catches
// up.
func (s *Server) handleFrames(w http.ResponseWriter, r *http.Request) {
	span := framesTimer.Start()
	defer span.Stop()
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req api.FramesRequest
	if err := api.DecodeRequest(r, &req); err != nil {
		s.writeBadRequest(w, err)
		return
	}
	switch st := sess.stateNow(); st {
	case api.SessionOpen:
	case api.SessionFailed:
		s.writeError(w, sess.failed())
		return
	default:
		s.writeError(w, fmt.Errorf("%w: %q", faults.ErrSessionClosed, sess.id))
		return
	}
	sess.touch(s.now())
	accepted, duplicate, err := sess.publish(&req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	framesAccepted.Add(int64(accepted))
	// Close is honored even on a duplicate resend: the original ack may
	// have been lost after the chunk was accepted but before the close
	// transition, and closeStream is idempotent either way.
	if req.Close {
		if sess.closeStream() {
			sessionsClosed.Inc()
			s.logf("session %s closed by client", sess.id)
		}
	}
	s.writeJSON(w, http.StatusOK, api.FramesResponse{
		SchemaVersion: api.Version,
		Accepted:      accepted,
		State:         sess.stateNow(),
		Duplicate:     duplicate,
	})
}

// handleReport returns a session's final verdict. The stream must be
// closed first (409 otherwise); the handler then waits for the engine's
// flush, bounded by the request context.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	span := reportTimer.Start()
	defer span.Stop()
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	if sess.stateNow() == api.SessionOpen {
		s.writeError(w, fmt.Errorf("%w: %q (close the stream first)", faults.ErrSessionOpen, sess.id))
		return
	}
	select {
	case <-sess.done:
	case <-r.Context().Done():
		return // client gave up while the engine was flushing
	}
	sess.mu.Lock()
	report, runErr := sess.report, sess.runErr
	sess.mu.Unlock()
	if runErr != nil {
		s.writeError(w, runErr)
		return
	}
	s.writeJSON(w, http.StatusOK, api.ReportFromCore(report))
}

// handleStatus returns a live session snapshot. Status polls do not
// refresh the idle timeout — only frames keep a session alive.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	span := statusTimer.Start()
	defer span.Stop()
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, sess.snapshot(s.now()))
}

// handleJournalExport serves a session's durable journal — the original
// SessionRequest plus every acknowledged chunk — as one JSON document.
// This is the fleet handoff path: a gateway draining this replica
// fetches the export and replays it through a successor's normal
// publish path, reproducing the verdict byte-identically (see DESIGN.md
// "Fleet routing & handoff"). Requires journaling; a server running
// without -journal has nothing durable to export (409).
func (s *Server) handleJournalExport(w http.ResponseWriter, r *http.Request) {
	span := journalExportTimer.Start()
	defer span.Stop()
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		// Not a session this server owns — but it may be a follower copy
		// replicated here for a session served elsewhere, and a gateway
		// whose owner (and owner's disk) died fetches it through this
		// same route.
		if s.exportFollower(w, r.PathValue("id")) {
			return
		}
		s.writeError(w, err)
		return
	}
	if s.journal == nil {
		s.writeError(w, fmt.Errorf("%w: journaling disabled, session %q has no durable log", faults.ErrSessionOpen, sess.id))
		return
	}
	// Serialize against publication so the export is a consistent prefix
	// of the chunk stream: no chunk is half-appended while we read.
	sess.pubMu.Lock()
	rec, err := s.journal.LoadSession(sess.id)
	sess.pubMu.Unlock()
	if err != nil {
		s.writeError(w, err)
		return
	}
	if rec.Corrupt != "" {
		s.writeError(w, fmt.Errorf("%w: %q: %s", faults.ErrSessionFailed, sess.id, rec.Corrupt))
		return
	}
	snap := sess.snapshot(s.now())
	exp := api.SessionJournal{
		SchemaVersion: api.Version,
		ID:            sess.id,
		Request:       rec.Meta.Req,
		State:         snap.State,
		LastSeq:       snap.LastSeq,
		FailCause:     snap.FailCause,
		Chunks:        rec.Chunks,
	}
	journalExports.Inc()
	s.writeJSON(w, http.StatusOK, exp)
}

// handleHealthz reports liveness and occupancy.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	n := len(s.sessions)
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, api.Health{
		SchemaVersion:  api.Version,
		Status:         status,
		ActiveSessions: n,
		SessionCap:     s.cfg.MaxSessions,
		JobsInFlight:   s.jobs.InUse(),
		JobCap:         s.jobs.Cap(),
	})
}

// --- response plumbing ---

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeBadRequest reports a body that failed strict decoding (400).
func (s *Server) writeBadRequest(w http.ResponseWriter, err error) {
	httpErrors.Inc()
	s.writeJSON(w, http.StatusBadRequest, api.Error{Code: api.CodeBadRequest, Error: err.Error()})
}

// writeError maps the shared fault vocabulary onto HTTP statuses: this
// is the single place wire status codes are decided.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	httpErrors.Inc()
	status, code := http.StatusInternalServerError, api.CodeInternal
	switch {
	case errors.Is(err, faults.ErrSessionNotFound):
		status, code = http.StatusNotFound, api.CodeNotFound
	case errors.Is(err, faults.ErrSessionFailed):
		status, code = http.StatusInternalServerError, api.CodeSessionFailed
	case errors.Is(err, faults.ErrTimeout):
		status, code = http.StatusServiceUnavailable, api.CodeTimeout
	case errors.Is(err, faults.ErrSessionClosed),
		errors.Is(err, faults.ErrSessionOpen),
		errors.Is(err, faults.ErrSeqGap):
		status, code = http.StatusConflict, api.CodeConflict
	case errors.Is(err, faults.ErrNoFlight),
		errors.Is(err, faults.ErrUnprocessable):
		status, code = http.StatusUnprocessableEntity, api.CodeUnprocessable
	case errors.Is(err, faults.ErrCapacity):
		status, code = http.StatusTooManyRequests, api.CodeCapacity
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, errShuttingDown):
		status, code = http.StatusServiceUnavailable, api.CodeShuttingDown
	case isMaxBytes(err):
		status, code = http.StatusRequestEntityTooLarge, api.CodeBadRequest
	}
	s.writeJSON(w, status, api.Error{Code: code, Error: err.Error()})
}

// isMaxBytes detects http.MaxBytesReader truncation surfaced through
// decode/load errors.
func isMaxBytes(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe) || strings.Contains(err.Error(), "request body too large")
}
