package stream

import soundboost "soundboost/internal/core"

// Option configures the streaming engine built by New. Options are
// applied in order over the zero Config, so later options win and the
// documented Config defaults fill whatever no option sets.
type Option func(*Config)

// WithBuffer sets the per-subscription channel depth. The bus sheds the
// oldest message when a buffer overflows, so size this to the burstiness
// of the link, not the flight length (default 1024).
func WithBuffer(depth int) Option {
	return func(c *Config) { c.Buffer = depth }
}

// WithLagHorizon bounds how far (seconds) the audio stream may run ahead
// of the telemetry watermark before a pending window is skipped as
// starved (default 10 s). This is what bounds engine memory when a
// telemetry stream stalls.
func WithLagHorizon(seconds float64) Option {
	return func(c *Config) { c.MaxLagSeconds = seconds }
}

// WithGapFill processes windows overlapping an audio dropout using the
// zero-filled gap samples instead of skipping them (default false).
func WithGapFill(process bool) Option {
	return func(c *Config) { c.GapFill = process }
}

// WithFlightName labels the produced report.
func WithFlightName(name string) Option {
	return func(c *Config) { c.FlightName = name }
}

// WithTriageDisabled forces the full pipeline on every window even when
// the analyzer carries a screening tier (the -no-triage escape hatch).
func WithTriageDisabled(disabled bool) Option {
	return func(c *Config) { c.DisableTriage = disabled }
}

// WithPrecision runs the stream's signature/inference hot path under the
// given precision: New derives a threshold-preserving precision clone of
// the analyzer (Analyzer.WithPrecision), so verdict thresholds are
// unchanged and the report records the mode it ran under. The zero value
// keeps the analyzer's own configured mode.
func WithPrecision(p soundboost.Precision) Option {
	return func(c *Config) { c.Precision = p }
}
