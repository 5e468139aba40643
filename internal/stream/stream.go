// Package stream is SoundBoost's online RCA engine: it takes in the
// telemetry streams a companion computer sees in flight ("audio-frame",
// "imu", "gps" — message by message through Engine.Ingest, or from a
// mavbus subscription through Engine.Run) and runs the calibrated
// two-stage analysis incrementally — a ring-buffered windower emits acoustic
// signatures as each hop of audio completes and feeds them, window by
// window, to the core's IMU KS monitor and two GPS Kalman error
// monitors, with the active KF variant switching live when the IMU
// verdict flips.
//
// The engine's contract with the batch pipeline is equivalence: on an
// in-order, lossless replay of a recorded flight the final verdict (root
// cause, IMU and GPS verdicts) is identical to Analyzer.Analyze over
// that flight, even when its telemetry has holes, because both paths
// share the feature kernel (SignatureConfig.AcousticWindow), the model
// inference, and the monitors themselves — batch Analyze is the same
// monitors driven over a finished flight's windows. Under degraded
// input — out-of-order, dropped, or NaN telemetry, audio dropouts — the
// engine degrades gracefully: corrupt samples are shed and counted,
// audio gaps are zero-filled to preserve timing with the affected
// windows skipped, and memory stays bounded by the lag horizon.
package stream

import (
	soundboost "soundboost/internal/core"
	"soundboost/internal/mathx"
	"soundboost/internal/obs"
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

// IMUSample is one logged inertial row, published at the IMU rate.
type IMUSample struct {
	// Time is the flight timestamp (s).
	Time float64
	// Accel is the accelerometer specific force (body frame).
	Accel mathx.Vec3
	// Gyro is the gyroscope rate (body frame).
	Gyro mathx.Vec3
	// Att is the autopilot attitude estimate (trusted per threat model).
	Att mathx.Quat
}

// GPSSample is one GPS fix (NED).
type GPSSample struct {
	// Time is the flight timestamp (s).
	Time float64
	// Pos and Vel are the reported NED position and velocity.
	Pos mathx.Vec3
	Vel mathx.Vec3
}

// Config tunes the streaming engine. The zero value selects the
// defaults noted on each field.
type Config struct {
	// AudioTopic, IMUTopic, GPSTopic name the bus topics to subscribe
	// to (defaults: TopicAudio, TopicIMU, TopicGPS).
	AudioTopic string
	IMUTopic   string
	GPSTopic   string
	// Buffer is the per-subscription channel depth (default 1024). The
	// bus sheds the oldest message when a buffer overflows, so size this
	// to the burstiness of the link, not the flight length.
	Buffer int
	// MaxLagSeconds bounds how far the audio stream may run ahead of the
	// telemetry watermark before a pending window is skipped as starved
	// (default 10 s). This is what bounds engine memory when a telemetry
	// stream stalls.
	MaxLagSeconds float64
	// GapFill processes windows overlapping an audio dropout using the
	// zero-filled gap samples instead of skipping them. Default false:
	// a window built from silence produces an untrustworthy signature,
	// so dropout windows are skipped (and counted) unless opted in.
	GapFill bool
	// DisableTriage runs the full pipeline on every window even when the
	// analyzer carries a screening tier — the streaming -no-triage
	// escape hatch.
	DisableTriage bool
	// FlightName labels the produced report.
	FlightName string
	// Precision overrides the arithmetic of the signature/inference hot
	// path for this stream: the engine derives a threshold-preserving
	// precision clone of the analyzer (Analyzer.WithPrecision) before
	// processing. The zero value keeps the analyzer's own mode —
	// Float64 unless the model opted in.
	Precision soundboost.Precision
}

func (c Config) withDefaults() Config {
	if c.AudioTopic == "" {
		c.AudioTopic = TopicAudio
	}
	if c.IMUTopic == "" {
		c.IMUTopic = TopicIMU
	}
	if c.GPSTopic == "" {
		c.GPSTopic = TopicGPS
	}
	if c.Buffer <= 0 {
		c.Buffer = 1024
	}
	if c.MaxLagSeconds <= 0 {
		c.MaxLagSeconds = 10
	}
	return c
}

// Per-stage metrics, resolved once at init and gated by obs.Enable.
// stream.windows.emitted counts fully processed windows;
// stream.windows.skipped_gap / skipped_starved / rejected count the three
// skip reasons (audio dropout, telemetry starvation, too-short window).
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
	windowsStarved     = obs.Default.Counter("stream.windows.skipped_starved")
	windowsRejected    = obs.Default.Counter("stream.windows.rejected")
	windowsScreened    = obs.Default.Counter("stream.windows.screened")
	triageEscalations  = obs.Default.Counter("stream.triage.escalations")
	triageFastReports  = obs.Default.Counter("stream.triage.fast_reports")
	featureTimer       = obs.Default.Timer("stream.window.features")
	imuPeriodTimer     = obs.Default.Timer("stream.imu.period")
	gpsStepTimer       = obs.Default.Timer("stream.gps.step")
	audioBufferGauge   = obs.Default.Gauge("stream.audio.buffer_seconds")
	lagGauge           = obs.Default.Gauge("stream.lag_seconds")
)
