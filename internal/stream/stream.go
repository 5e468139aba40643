// Package stream is SoundBoost's online RCA engine: it takes in the
// telemetry streams a companion computer sees in flight ("audio-frame",
// "imu", "gps" — message by message through Engine.Ingest, or from a
// mavbus through Engine.Run) and runs the calibrated two-stage
// analysis incrementally — a block-buffered windower emits acoustic
// signatures as each hop of audio completes and hands each, with the
// window's rows, to a core Run, whose Add reduces the window exactly as
// batch Analyze does and feeds the IMU KS monitor and both GPS Kalman
// variants, the active variant switching live when the IMU verdict
// flips. Triage windows go to the analyzer's ScreenWindow.
//
// The engine's contract with the batch pipeline is equivalence: on an
// in-order, lossless replay of a recorded flight the final report is
// identical to Analyzer.Analyze over that flight, even when its
// telemetry has holes or non-finite rows, because both paths admit rows
// by AdmitIMU and AdmitGPS (the first admitted fix seeds the KF) and
// share the feature kernel, the window function, the triage screen and
// the monitors. Under degraded input — out-of-order, dropped, or NaN
// telemetry, audio dropouts — the engine degrades gracefully: corrupt
// rows are shed and counted, audio gaps are zero-filled to preserve
// timing with the affected windows skipped, and memory stays bounded by
// the lag horizon, past which a window is decided with the telemetry
// that arrived.
package stream

import (
	"soundboost/internal/obs"
	"soundboost/internal/triage"
)

// Default topic names, matching the MAVLink-style streams the bus carries.
const (
	// TopicAudio carries AudioFrame payloads.
	TopicAudio = "audio-frame"
	// TopicIMU carries IMUSample payloads.
	TopicIMU = "imu"
	// TopicGPS carries GPSSample payloads.
	TopicGPS = "gps"
)

// AudioFrame is one contiguous chunk of the microphone-array recording.
// Frames are expected in order; the windower tolerates duplicates,
// overlaps, and gaps (see Engine).
type AudioFrame struct {
	// Start is the capture time of the first sample (flight seconds).
	Start float64
	// Rate is the sample rate in Hz.
	Rate float64
	// Samples holds the per-microphone sample chunks (equal lengths).
	Samples [][]float64
}

// IMUSample is one logged inertial row (time, specific force, gyro
// rate, attitude estimate), published at the IMU rate. It is the core's
// and the triage tier's row type, so the engine's buffers hand a
// window's rows to Run.Add and ScreenWindow without a copy.
type IMUSample = triage.IMUPoint

// GPSSample is one GPS fix (time, NED position and velocity), shared
// with the core like IMUSample.
type GPSSample = triage.GPSPoint

// Config tunes the streaming engine. The zero value selects the
// defaults noted on each field.
type Config struct {
	// MaxLagSeconds bounds how far the audio stream may run ahead of the
	// telemetry watermark before a pending window is decided as starved,
	// with the rows that arrived (default 10 s). This is what bounds
	// engine memory when a telemetry stream stalls.
	MaxLagSeconds float64
	// FlightName labels the produced report.
	FlightName string
}

func (c Config) withDefaults() Config {
	if c.MaxLagSeconds <= 0 {
		c.MaxLagSeconds = 10
	}
	return c
}

// Per-stage metrics, resolved once at init and gated by obs.Enable.
// stream.windows.emitted counts fully processed windows;
// stream.windows.skipped_gap / rejected count the two skip reasons
// (audio dropout; too-short window or no IMU rows), and
// stream.windows.starved the windows decided without waiting for the
// telemetry watermark.
var (
	framesTotal        = obs.Default.Counter("stream.frames")
	framesOutOfOrder   = obs.Default.Counter("stream.frames.out_of_order")
	framesMalformed    = obs.Default.Counter("stream.frames.malformed")
	gapSamplesFilled   = obs.Default.Counter("stream.audio.gap_samples")
	nonFiniteSamples   = obs.Default.Counter("stream.audio.nonfinite_samples")
	telemetryIMU       = obs.Default.Counter("stream.telemetry.imu")
	telemetryGPS       = obs.Default.Counter("stream.telemetry.gps")
	telemetryNaN       = obs.Default.Counter("stream.telemetry.nan_dropped")
	telemetryReordered = obs.Default.Counter("stream.telemetry.out_of_order")
	telemetryEvicted   = obs.Default.Counter("stream.telemetry.evicted")
	windowsEmitted     = obs.Default.Counter("stream.windows.emitted")
	windowsSkippedGap  = obs.Default.Counter("stream.windows.skipped_gap")
	windowsStarved     = obs.Default.Counter("stream.windows.starved")
	windowsRejected    = obs.Default.Counter("stream.windows.rejected")
	windowsScreened    = obs.Default.Counter("stream.windows.screened")
	triageEscalations  = obs.Default.Counter("stream.triage.escalations")
	triageFastReports  = obs.Default.Counter("stream.triage.fast_reports")
	featureTimer       = obs.Default.Timer("stream.window.features")
	lagGauge           = obs.Default.Gauge("stream.lag_seconds")
)
