// Package server is SoundBoost's multi-session RCA service: one shared
// calibrated Analyzer serving many concurrent flights over HTTP. Batch
// uploads (POST /v1/flights) run the offline pipeline under a bounded
// admission pool; streaming sessions (POST /v1/sessions + frames) feed a
// per-session chunk queue into a per-session stream.Engine, so a
// streamed flight yields the same verdict as a batch upload of the same
// recording. All request/response bodies are the schema-versioned DTOs
// of the top-level api package; internal structs never cross the wire.
//
// Resource bounds and backpressure: the session table is capped
// (finished sessions are LRU-evicted to make room; when every slot is
// live, creation sheds with 429 + Retry-After), the batch pool is a
// parallel.Limiter (full → 429), each session's chunk queue is bounded
// (full → the frames post waits; nothing is dropped), per-session idle
// timeouts and hard
// deadlines reclaim abandoned streams, and Shutdown drains gracefully:
// no new work, open streams closed, verdicts flushed.
//
// The package is split along its seams: this file is the server's
// lifecycle (config, construction, drain); router.go is the HTTP layer
// (routes, handlers, error mapping); session.go is session placement and
// the per-session worker; recovery.go rebuilds the table from the
// journal after a crash. The durable journal format itself lives in
// internal/journal, shared with the fleet gateway that uses it as the
// session-transfer format.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"soundboost/internal/chaos"
	soundboost "soundboost/internal/core"
	"soundboost/internal/journal"
	"soundboost/internal/parallel"
)

// errShuttingDown sheds requests arriving during a graceful drain
// (HTTP 503). Unexported: it is a lifecycle condition of this server,
// not part of the shared fault vocabulary.
var errShuttingDown = errors.New("server: shutting down")

// Config tunes the service. The zero value selects the defaults noted
// on each field.
type Config struct {
	// MaxSessions bounds the session table, finished sessions included
	// (default 64).
	MaxSessions int
	// MaxJobs bounds concurrent batch flight analyses (default 4).
	MaxJobs int
	// IdleTimeout closes an open session that has received no frames
	// for this long (default 60s).
	IdleTimeout time.Duration
	// MaxSessionAge is the hard deadline: an open session older than
	// this is closed regardless of activity (default 15m).
	MaxSessionAge time.Duration
	// MaxBodyBytes caps request bodies (default 256 MiB — a flight
	// upload carries raw audio).
	MaxBodyBytes int64
	// SweepInterval is the janitor tick (default 1s).
	SweepInterval time.Duration
	// BatchTimeout bounds one batch flight analysis (default 2m). A
	// request whose analysis outlives it (or whose client disconnects)
	// gets 503/timeout; the worker slot frees when the abandoned analysis
	// actually returns.
	BatchTimeout time.Duration
	// JournalDir, when set, enables crash-safe session recovery: accepted
	// chunks are fsynced to a write-ahead log before they are
	// acknowledged, lifecycle transitions are checkpointed, and a
	// restarted server rebuilds its session table from the directory. The
	// same directory doubles as the fleet gateway's failover source: a
	// dead replica's sessions are replayed from it onto a successor. See
	// DESIGN.md "Failure domains & recovery" and "Fleet routing &
	// handoff".
	JournalDir string
	// SessionInjector, when set, supplies a chaos fault schedule for each
	// new session: the returned injector (nil = no faults) wraps the
	// session's engine ingest path. Used by the `soundboost chaos` soak to
	// inject message-plane faults server-side; never set in production.
	SessionInjector func(id, flight string) *chaos.Injector
	// Logf, when set, receives one line per lifecycle event (session
	// opened/closed/evicted/failed/recovered, drain).
	Logf func(format string, a ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.MaxSessionAge <= 0 {
		c.MaxSessionAge = 15 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = time.Second
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 2 * time.Minute
	}
	return c
}

// Server hosts the RCA service over one shared calibrated analyzer.
type Server struct {
	an      *soundboost.Analyzer
	cfg     Config
	jobs    *parallel.Limiter
	mux     *http.ServeMux
	now     func() time.Time
	journal *journal.Store // nil unless Config.JournalDir is set

	// Follower journal copies held for sessions served elsewhere in the
	// fleet (see follower.go). Nil unless journaling is enabled.
	followers      *journal.Store
	followerMu     sync.Mutex
	followerCopies map[string]*followerCopy

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	draining bool

	wg          sync.WaitGroup
	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New builds a server around a calibrated analyzer and starts its
// janitor. Callers must Shutdown (or Close) to stop it.
func New(an *soundboost.Analyzer, cfg Config) (*Server, error) {
	if an == nil || an.Model == nil || an.IMU == nil || an.GPSAudioOnly == nil || an.GPSAudioIMU == nil {
		return nil, fmt.Errorf("server: nil or incomplete analyzer")
	}
	s := &Server{
		an:          an,
		cfg:         cfg.withDefaults(),
		now:         time.Now,
		sessions:    make(map[string]*session),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.jobs = parallel.NewLimiter("batch-rca", s.cfg.MaxJobs)
	s.mux = s.routes()
	if s.cfg.JournalDir != "" {
		j, err := journal.Open(s.cfg.JournalDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.journal = j
		if err := s.openFollowerStore(); err != nil {
			return nil, err
		}
		// Rebuild the session table from the journal before accepting
		// traffic, so a client resuming against a restarted server never
		// races its own recovery.
		s.recoverSessions()
	}
	go s.janitor()
	return s, nil
}

func (s *Server) logf(format string, a ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, a...)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the service: no new sessions or batch jobs are
// admitted, every open session's stream is closed, and all engines are
// given until ctx expires to flush their final verdicts. The HTTP
// listener itself is the caller's to stop (http.Server.Shutdown) —
// status and report reads keep working during the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	if !already {
		close(s.janitorStop)
		<-s.janitorDone
		s.closeFollowers()
		s.logf("drain: closing %d session(s)", len(open))
	}
	done := make(chan struct{})
	go func() {
		// Closing a stream waits for a post blocked on its full queue,
		// so it runs under ctx's budget too.
		for _, sess := range open {
			sess.closeStream()
		}
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("drain: complete")
		return nil
	case <-ctx.Done():
		// Straggler engines keep draining their closed queues; their
		// goroutines end when they do.
		return ctx.Err()
	}
}
