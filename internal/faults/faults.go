// Package faults is SoundBoost's documented error set: the sentinel
// errors shared by the analysis pipeline (internal/core), the telemetry
// bus (internal/mavbus), the streaming engine (internal/stream), and the
// RCA service (internal/server). Consolidating them in one leaf package
// gives every layer a single vocabulary that callers can match with
// errors.Is, and gives the HTTP layer a stable mapping from failure kind
// to status code without string inspection.
//
// Each error below documents the condition it names and, where the
// server returns it over the wire, the HTTP status it maps to. Packages
// re-export the sentinels relevant to their own API (core.ErrNoFlight,
// mavbus.ErrClosed, stream.ErrNotAttached) as aliases of the same
// values, so errors.Is matches across layers no matter which name a
// caller imported.
package faults

import "errors"

var (
	// ErrNoFlight is returned by Analyzer.Analyze when given a nil
	// flight or one with no telemetry and no audio — there is nothing to
	// attribute a cause to. HTTP: 422 Unprocessable Entity.
	ErrNoFlight = errors.New("soundboost: nil or empty flight")

	// ErrBusClosed is returned when publishing to a closed mavbus,
	// which only the in-process live replay (`soundboost live`) uses.
	// The server has no bus and never returns it: frames posted to a
	// closed session get ErrSessionClosed.
	ErrBusClosed = errors.New("mavbus: bus closed")

	// ErrEngineDetached is returned by stream.Engine.Run when the engine
	// was never attached to a bus, so there is nothing to read. HTTP:
	// 500 (an internal wiring invariant, never a client fault).
	ErrEngineDetached = errors.New("stream: engine not attached to a bus")

	// ErrSessionNotFound is returned for session ids that do not exist,
	// were evicted, or expired and were swept. HTTP: 404 Not Found.
	ErrSessionNotFound = errors.New("server: session not found")

	// ErrSessionClosed is returned when frames are posted to a session
	// whose stream has already been closed (explicitly, by idle timeout,
	// or by its hard deadline). HTTP: 409 Conflict.
	ErrSessionClosed = errors.New("server: session already closed")

	// ErrSessionOpen is returned when a final report is requested from a
	// session that is still streaming — close the session first. HTTP:
	// 409 Conflict.
	ErrSessionOpen = errors.New("server: session still open")

	// ErrCapacity is returned when the session table is full of live
	// sessions or the batch worker pool has no free slot. HTTP: 429 Too
	// Many Requests with Retry-After.
	ErrCapacity = errors.New("server: at capacity")

	// ErrUnprocessable wraps payloads that parsed as a request but do
	// not decode into a usable flight or frame set. HTTP: 422
	// Unprocessable Entity.
	ErrUnprocessable = errors.New("server: unprocessable payload")

	// ErrBadChunk is returned by api.ChunkFlight for a zero or negative
	// chunk size — the caller asked for an impossible slicing rather than
	// the "single request" behavior (which is an explicit choice, not a
	// degenerate chunk size). Never served over the wire; CLI-side only.
	ErrBadChunk = errors.New("api: chunk seconds must be positive")

	// ErrSeqGap is returned when a frames request carries a sequence
	// number that skips ahead of the session's accepted prefix — an
	// earlier chunk was lost, so accepting this one would silently corrupt
	// the stream. The client must back up to last_seq + 1. HTTP: 409
	// Conflict.
	ErrSeqGap = errors.New("server: frames sequence gap")

	// ErrSessionFailed is returned for any operation on a session whose
	// engine goroutine panicked or died fatally. The failure is isolated
	// to the one session; its cause is recorded in the session status.
	// HTTP: 500 with code "session_failed".
	ErrSessionFailed = errors.New("server: session failed")

	// ErrTimeout is returned when a batch analysis exceeds its request
	// deadline (client disconnect or server-side cap) and the handler
	// abandons it. HTTP: 503 with code "timeout" — the work was shed, not
	// wrong, so the client may retry. The worker-pool slot is released
	// only when the abandoned analysis actually returns.
	ErrTimeout = errors.New("server: analysis timed out")
)
