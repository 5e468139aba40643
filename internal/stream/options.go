package stream

// Option configures the streaming engine built by New. Options are
// applied in order over the zero Config, so later options win and the
// documented Config defaults fill whatever no option sets.
type Option func(*Config)

// WithLagHorizon bounds how far (seconds) the audio stream may run ahead
// of the telemetry watermark before a pending window is decided as
// starved, with the rows that arrived (default 10 s). This is what
// bounds engine memory when a telemetry stream stalls.
func WithLagHorizon(seconds float64) Option {
	return func(c *Config) { c.MaxLagSeconds = seconds }
}

// WithFlightName labels the produced report.
func WithFlightName(name string) Option {
	return func(c *Config) { c.FlightName = name }
}
