// Package obs is the repository's dependency-free observability layer:
// atomic counters, float gauges, streaming histograms with quantile
// estimation, and named stage timers, collected in a process-wide
// registry with JSON snapshot export.
//
// The layer is off by default and every handle is nil-safe, so
// instrumentation sites cost a single atomic bool load (plus a nil
// check) on the disabled path — the uninstrumented hot path is within
// measurement noise of code compiled without the calls. Call Enable
// (the CLIs do this when -debug-addr is given, the end-to-end benchmark
// for its traced runs) to start recording.
//
// Typical instrumentation site:
//
//	var fftTimer = obs.Default.Timer("dsp.fft")
//
//	func (p *Plan) Transform(x []complex128, inverse bool) {
//		span := fftTimer.Start() // no-op Span when disabled
//		defer span.Stop()
//		...
//	}
//
// Metric handles are created once at package init; Start/Add/Set/Observe
// all early-return while the layer is disabled.
package obs

import "sync/atomic"

// enabled gates every recording path. Handles stay registered while
// disabled; they just refuse to record.
var enabled atomic.Bool

// Enable turns recording on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns recording off process-wide. Already-recorded values are
// kept (use Default.Reset to clear them).
func Disable() { enabled.Store(false) }

// Enabled reports whether the layer is recording.
func Enabled() bool { return enabled.Load() }

// Default is the process-wide registry. The instrumented packages and
// the debug HTTP endpoint all use it.
var Default = NewRegistry()
