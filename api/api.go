// Package api is SoundBoost's public wire contract: the
// schema-versioned request and response bodies served by `soundboost
// serve` under the /v1 path prefix. Internal structs (core.Report,
// stream.Status, …) keep evolving freely; everything that crosses the
// network is one of the DTOs below, converted in this package and
// nowhere else, so a wire change is always a deliberate, reviewed event.
//
// Versioning rules (see DESIGN.md "API versioning"):
//
//   - Version names the wire schema and prefixes every route (/v1/...).
//     Responses echo it in schema_version.
//   - Adding a field is backward compatible and allowed within a
//     version; renaming, removing, or changing the meaning or unit of a
//     field is not — it requires bumping Version and serving the new
//     schema under a new path prefix.
//   - The golden schema snapshot (testdata/v1_schema.golden.json,
//     enforced by TestSchemaGolden) pins the serialized shape of every
//     DTO; it fails on any drift so the version bump cannot be skipped
//     accidentally.
//   - Requests are decoded strictly: unknown fields are rejected, so
//     client typos fail loudly instead of being silently ignored.
//
// Field conventions: JSON keys are snake_case; times and durations are
// float64 flight-seconds with a _seconds suffix; rates carry _hz.
package api

// Version is the wire schema version, also used as the route prefix
// ("/" + Version + "/...").
const Version = "v1"

// Causes attributable by the RCA pipeline, as serialized in
// Report.Cause.
const (
	CauseNone      = "none"
	CauseIMU       = "imu"
	CauseGPS       = "gps"
	CauseIMUAndGPS = "imu+gps"
)

// Session lifecycle states, as serialized in SessionStatus.State (see
// DESIGN.md "Session lifecycle").
const (
	// SessionOpen accepts frames.
	SessionOpen = "open"
	// SessionDraining has seen end-of-stream (explicit close, idle
	// timeout, or hard deadline) and is finalizing its verdict.
	SessionDraining = "draining"
	// SessionDone holds a final report until evicted.
	SessionDone = "done"
	// SessionFailed is terminal: the session's engine goroutine panicked
	// or errored fatally. The failure is isolated to this session — the
	// recorded cause is available in SessionStatus.FailCause and from
	// GET .../report — and every other session is unaffected.
	SessionFailed = "failed"
)

// Error codes carried by Error.Code, the machine-readable counterpart
// of the HTTP status.
const (
	CodeBadRequest       = "bad_request"          // 400: malformed or unknown-field body
	CodeNotFound         = "not_found"            // 404: unknown route or session id
	CodeConflict         = "conflict"             // 409: operation illegal in the session's state
	CodeUnprocessable    = "unprocessable"        // 422: parsed but unusable payload
	CodeCapacity         = "capacity"             // 429: session table or worker pool full
	CodeInternal         = "internal"             // 500: server-side failure
	CodeShuttingDown     = "shutting_down"        // 503: server is draining
	CodeMethodNotAllowed = "method_not_allowed"   // 405: wrong method on a known route
	CodeSessionFailed    = "session_failed"       // 500: the session's engine died; cause recorded
	CodeTimeout          = "timeout"              // 503: analysis exceeded its deadline and was shed
	CodeUpstream         = "upstream_unavailable" // 503: fleet gateway found no reachable replica
)

// Error is the body of every non-2xx response.
type Error struct {
	// Code is the machine-readable error category (Code* constants).
	Code string `json:"code"`
	// Error is a human-readable description.
	Error string `json:"error"`
}

// Health is the GET /v1/healthz response.
type Health struct {
	SchemaVersion string `json:"schema_version"`
	// Status is "ok" while serving, "draining" during graceful shutdown.
	Status string `json:"status"`
	// ActiveSessions / SessionCap describe session-table occupancy.
	ActiveSessions int `json:"active_sessions"`
	SessionCap     int `json:"session_cap"`
	// JobsInFlight / JobCap describe the batch analysis worker pool.
	JobsInFlight int `json:"jobs_in_flight"`
	JobCap       int `json:"job_cap"`
}

// IMUVerdict is the stage-1 verdict on the wire.
type IMUVerdict struct {
	Attacked bool `json:"attacked"`
	// DetectionSeconds is the flight time of the first alarmed window
	// (valid when Attacked).
	DetectionSeconds float64 `json:"detection_seconds"`
	WindowsTested    int     `json:"windows_tested"`
	WindowsRejected  int     `json:"windows_rejected"`
	// AttackStd is the residual standard deviation over rejected
	// windows, 0 when benign.
	AttackStd float64 `json:"attack_std"`
}

// GPSVerdict is the stage-2 verdict on the wire.
type GPSVerdict struct {
	Attacked bool `json:"attacked"`
	// DetectionSeconds is the flight time when the running error first
	// crossed the threshold (valid when Attacked).
	DetectionSeconds float64 `json:"detection_seconds"`
	PeakError        float64 `json:"peak_error"`
	Threshold        float64 `json:"threshold"`
}

// Report is the RCA outcome on the wire — returned by POST /v1/flights
// and GET /v1/sessions/{id}/report.
type Report struct {
	SchemaVersion string `json:"schema_version"`
	Flight        string `json:"flight"`
	// Cause is one of the Cause* constants.
	Cause string     `json:"cause"`
	IMU   IMUVerdict `json:"imu"`
	GPS   GPSVerdict `json:"gps"`
	// GPSMode is the KF variant stage 2 used ("audio-only" when the IMU
	// was flagged, "audio+imu" otherwise).
	GPSMode string `json:"gps_mode"`
	// Precision is the arithmetic the signature/inference hot path ran
	// under: "float64" (the exact default) or "float32" (the opt-in fast
	// path). Omitted by servers predating the field, which only ever ran
	// float64.
	Precision string `json:"precision,omitempty"`
	// Tolerance is the documented per-feature absolute error bound of
	// the precision mode relative to exact float64 — 0 for float64
	// itself, so it is omitted there.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// FlightResponse is the POST /v1/flights response: the batch report for
// the uploaded recording.
type FlightResponse struct {
	Report Report `json:"report"`
	// ElapsedSeconds is the server-side analysis wall time.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// SessionRequest is the POST /v1/sessions body.
type SessionRequest struct {
	// Flight labels the session's report.
	Flight string `json:"flight,omitempty"`
	// SampleRateHz is the audio sample rate of the incoming frames
	// (required; it must satisfy the calibrated model's layout).
	SampleRateHz float64 `json:"sample_rate_hz"`
	// Buffer is accepted, no effect; removal waits for a /v2.
	Buffer int `json:"buffer,omitempty"`
	// LagHorizonSeconds bounds how far audio may outrun telemetry
	// before windows are shed (0 = engine default).
	LagHorizonSeconds float64 `json:"lag_horizon_seconds,omitempty"`
	// GapFill processes dropout windows from zero-filled audio instead
	// of skipping them.
	GapFill bool `json:"gap_fill,omitempty"`
	// Precision selects the arithmetic of the session's hot path:
	// "float64" (default, also for the empty string) or "float32" (the
	// opt-in fast path; the session's report echoes the mode and its
	// tolerance). Unknown values are rejected with 422.
	Precision string `json:"precision,omitempty"`
}

// SessionResponse is the POST /v1/sessions response.
type SessionResponse struct {
	SchemaVersion string `json:"schema_version"`
	// ID addresses the session in every /v1/sessions/{id}/... route.
	ID    string `json:"id"`
	State string `json:"state"`
}

// AudioFrame is one contiguous chunk of the microphone-array recording.
type AudioFrame struct {
	// StartSeconds is the capture time of the first sample.
	StartSeconds float64 `json:"start_seconds"`
	RateHz       float64 `json:"rate_hz"`
	// Samples holds per-microphone chunks of equal length.
	Samples [][]float64 `json:"samples"`
}

// Vec3 is a 3-vector in NED or body frame depending on the field.
type Vec3 struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

// Quat is a unit quaternion attitude (w, x, y, z).
type Quat struct {
	W float64 `json:"w"`
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

// IMUSample is one inertial row.
type IMUSample struct {
	TimeSeconds float64 `json:"time_seconds"`
	// Accel is the accelerometer specific force (body frame).
	Accel Vec3 `json:"accel"`
	// Gyro is the gyroscope rate (body frame).
	Gyro Vec3 `json:"gyro"`
	// Att is the autopilot attitude estimate.
	Att Quat `json:"att"`
}

// GPSSample is one GPS fix (NED).
type GPSSample struct {
	TimeSeconds float64 `json:"time_seconds"`
	Pos         Vec3    `json:"pos"`
	Vel         Vec3    `json:"vel"`
}

// FramesRequest is the POST /v1/sessions/{id}/frames body: a batch of
// telemetry to feed the session's engine. Within each stream, items must
// be time-ordered across requests (the engine sheds regressions); the
// three streams are merged by timestamp before publication.
type FramesRequest struct {
	// Seq is the request's 1-based position in the session's chunk
	// stream, used for idempotent resend: a request whose Seq the server
	// has already accepted is acknowledged without re-publishing
	// (FramesResponse.Duplicate), so a client that lost an ack can
	// safely retry; a Seq that skips ahead is rejected with 409. Seq 0
	// opts out of idempotency (and of journal-backed session resume).
	Seq int `json:"seq,omitempty"`

	Audio []AudioFrame `json:"audio,omitempty"`
	IMU   []IMUSample  `json:"imu,omitempty"`
	GPS   []GPSSample  `json:"gps,omitempty"`
	// Close marks end-of-stream after this batch: the session drains,
	// finalizes its verdict, and moves to "done".
	Close bool `json:"close,omitempty"`

	// wire holds the body bytes DecodeStrict parsed this request from,
	// nil for a request built in code (see EncodeChunk).
	wire []byte
}

// FramesResponse is the POST /v1/sessions/{id}/frames response.
type FramesResponse struct {
	SchemaVersion string `json:"schema_version"`
	// Accepted counts the messages (audio frames, IMU rows, GPS fixes)
	// of the request's chunk, now queued for the session's engine; 0 on
	// a duplicate. Every accepted message reaches the engine.
	Accepted int `json:"accepted"`
	// Shed is always 0: the server never drops input. A client that
	// outruns its session's engine waits for the ack instead.
	Shed  int    `json:"shed"`
	State string `json:"state"`
	// Duplicate reports that the request's Seq was already accepted and
	// nothing was re-published — the expected outcome of an idempotent
	// resend after a lost ack.
	Duplicate bool `json:"duplicate,omitempty"`
}

// EngineStatus is the live engine snapshot inside SessionStatus.
type EngineStatus struct {
	// LastWindowEndSeconds is the end time of the newest processed
	// window.
	LastWindowEndSeconds float64 `json:"last_window_end_seconds"`
	Windows              int     `json:"windows"`
	Skipped              int     `json:"skipped"`
	IMUAttacked          bool    `json:"imu_attacked"`
	GPSAttacked          bool    `json:"gps_attacked"`
	// ActiveKFMode is the KF variant currently trusted for the GPS
	// verdict.
	ActiveKFMode string  `json:"active_kf_mode"`
	RunningError float64 `json:"running_error"`
	PeakError    float64 `json:"peak_error"`
	Threshold    float64 `json:"threshold"`
}

// SessionStatus is the GET /v1/sessions/{id}/status response.
type SessionStatus struct {
	SchemaVersion string `json:"schema_version"`
	ID            string `json:"id"`
	Flight        string `json:"flight"`
	// State is one of the Session* constants.
	State string `json:"state"`
	// AgeSeconds and IdleSeconds are measured against the session's
	// creation and last touch.
	AgeSeconds  float64 `json:"age_seconds"`
	IdleSeconds float64 `json:"idle_seconds"`
	// Shed is always 0: the server never drops input.
	Shed int `json:"shed"`
	// LastSeq is the highest frames-request sequence number accepted so
	// far (0 when the client is not using sequence numbers). A client
	// resuming an interrupted upload — including against a restarted
	// server that recovered the session from its journal — reads this to
	// learn where to continue.
	LastSeq int `json:"last_seq"`
	// FailCause records why a failed session died (state "failed" only).
	FailCause string       `json:"fail_cause,omitempty"`
	Engine    EngineStatus `json:"engine"`
}

// JournalAppend is the POST /v1/sessions/{id}/journal/append body — the
// fleet replication stream. The gateway forwards every chunk an owner
// replica acknowledges to R−1 follower replicas as one append each; the
// follower fsyncs the chunk into its follower journal BEFORE answering,
// so the copy survives the follower's own crash. The {id} in the path is
// the replication key (the gateway's session id), which is unique across
// the fleet and never collides with the follower's own session table.
type JournalAppend struct {
	SchemaVersion string `json:"schema_version"`
	// Seq is the append's 1-based position in the session's replication
	// stream — the index of Chunk within the owner's journal, independent
	// of Chunk.Seq (which clients may omit). An append at or below the
	// follower's high-water mark is absorbed as a duplicate; one that
	// skips ahead is rejected with 409 so the gateway knows to reseed the
	// follower from a full export.
	Seq int `json:"seq"`
	// Request is the session's original open request, repeated on every
	// append so a follower can (re)create the copy statelessly.
	Request SessionRequest `json:"request"`
	// Chunk is the acknowledged FramesRequest being replicated, verbatim.
	Chunk FramesRequest `json:"chunk"`
}

// JournalAppendResponse is the POST /v1/sessions/{id}/journal/append
// response.
type JournalAppendResponse struct {
	SchemaVersion string `json:"schema_version"`
	ID            string `json:"id"`
	// LastSeq is the highest replication index durably held after this
	// append (fsynced — the gateway's lag accounting trusts it).
	LastSeq int `json:"last_seq"`
	// Duplicate reports that the append's Seq was already held and
	// nothing was re-written.
	Duplicate bool `json:"duplicate,omitempty"`
}

// SessionJournal is the GET /v1/sessions/{id}/journal response: the
// session's durable write-ahead log — its original SessionRequest plus
// every acknowledged chunk, in acceptance order — packaged as one
// document. It is the fleet handoff format: a gateway migrating a
// session off a draining or dead replica replays Chunks through a
// successor's normal publish path, and because the engine is
// deterministic the successor's verdict is byte-identical to the one the
// original replica would have produced. Requires the server to run with
// journaling enabled.
type SessionJournal struct {
	SchemaVersion string `json:"schema_version"`
	ID            string `json:"id"`
	// Request reopens an equivalent session on the successor.
	Request SessionRequest `json:"request"`
	// State is the session's lifecycle state at export time.
	State string `json:"state"`
	// LastSeq is the highest acknowledged sequence number; Chunks holds
	// exactly the acknowledged prefix, so len(Chunks) chunks replay
	// cleanly into a fresh session.
	LastSeq int `json:"last_seq"`
	// FailCause records why a failed session died (state "failed" only).
	FailCause string `json:"fail_cause,omitempty"`
	// Chunks is the acknowledged chunk stream in acceptance order.
	Chunks []FramesRequest `json:"chunks"`
}
