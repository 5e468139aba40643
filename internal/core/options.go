package soundboost

import (
	"fmt"

	"soundboost/internal/kalman"
	"soundboost/internal/triage"
)

// AnalyzerOption configures NewAnalyzer's calibration. The zero option
// set reproduces the historical behaviour: default detector configs and
// the process-wide worker count.
type AnalyzerOption func(*analyzerOptions)

type analyzerOptions struct {
	gpsCfgs      map[kalman.Mode]GPSDetectorConfig
	triage       *triage.Model
	precision    Precision
	precisionSet bool
}

func defaultAnalyzerOptions() analyzerOptions {
	return analyzerOptions{
		gpsCfgs: map[kalman.Mode]GPSDetectorConfig{
			kalman.ModeAudioOnly: DefaultGPSDetectorConfig(kalman.ModeAudioOnly),
			kalman.ModeAudioIMU:  DefaultGPSDetectorConfig(kalman.ModeAudioIMU),
		},
	}
}

// WithKFVariant overrides the GPS detector configuration for the KF
// variant named by cfg.Mode (kalman.ModeAudioOnly or
// kalman.ModeAudioIMU); the other variant keeps its default. Passing an
// unknown mode makes NewAnalyzer fail with a descriptive error.
func WithKFVariant(cfg GPSDetectorConfig) AnalyzerOption {
	return func(o *analyzerOptions) { o.gpsCfgs[cfg.Mode] = cfg }
}

// WithTriage attaches a trained screening tier (see internal/triage) to
// the analyzer: flights whose every window screens confident-benign
// skip the full two-stage pipeline. Run VerifyTriage on the calibration
// corpus afterwards to enforce the zero verdict-flip guarantee. Nil
// leaves screening disabled (the default).
func WithTriage(m *triage.Model) AnalyzerOption {
	return func(o *analyzerOptions) { o.triage = m }
}

// WithPrecision selects the arithmetic of the signature/inference hot
// path for the analyzer being calibrated. It applies BEFORE
// calibration, so the detector thresholds are fitted under the same
// arithmetic Analyze will run — the analyzer is self-consistent. To
// re-precision an already calibrated analyzer while preserving its
// thresholds exactly (the equivalence-testing shape), use
// Analyzer.WithPrecision instead. The default leaves the model's own
// configured precision in force (Float64 unless the model opts in).
func WithPrecision(p Precision) AnalyzerOption {
	return func(o *analyzerOptions) {
		o.precision = p
		o.precisionSet = true
	}
}

// validate rejects option combinations the analyzer cannot calibrate.
func (o *analyzerOptions) validate() error {
	if o.precisionSet {
		if err := o.precision.validate(); err != nil {
			return err
		}
	}
	for mode := range o.gpsCfgs {
		if mode != kalman.ModeAudioOnly && mode != kalman.ModeAudioIMU {
			return fmt.Errorf("soundboost: WithKFVariant: analyzer KF variant must be %q or %q, got %q",
				kalman.ModeAudioOnly, kalman.ModeAudioIMU, mode)
		}
	}
	return nil
}
