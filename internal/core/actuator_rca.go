package soundboost

import (
	"fmt"
	"math"

	"soundboost/internal/dataset"
	"soundboost/internal/sensors"
)

// ActuatorDetectorConfig tunes the actuator-DoS RCA extension (paper
// §V-B): when actuators stop mid-air, the rotors go quiet and the
// acoustic model predicts a thrust magnitude no airborne vehicle can
// have — a physical-plausibility violation that needs no calibration
// beyond the constant of gravity.
type ActuatorDetectorConfig struct {
	// MinThrustFraction is the minimum plausible |predicted specific
	// force| as a fraction of g for an airborne multirotor; windows below
	// it are implausible.
	MinThrustFraction float64
	// DetectWindows is how many consecutive implausible windows alarm.
	DetectWindows int
}

// DefaultActuatorDetectorConfig returns the tuned configuration.
func DefaultActuatorDetectorConfig() ActuatorDetectorConfig {
	return ActuatorDetectorConfig{MinThrustFraction: 0.5, DetectWindows: 2}
}

// ActuatorVerdict is the outcome of the actuator RCA check on one flight.
type ActuatorVerdict struct {
	// Attacked reports whether an actuator outage was flagged.
	Attacked bool
	// DetectionTime is the flight time (s) of the first alarmed window.
	DetectionTime float64
	// MinPredictedG is the smallest predicted |specific force| seen,
	// in g units.
	MinPredictedG float64
}

// ActuatorDetector flags actuator denial-of-service outages from the
// acoustic channel alone.
type ActuatorDetector struct {
	cfg   ActuatorDetectorConfig
	model *AcousticModel
}

// NewActuatorDetector builds the detector.
func NewActuatorDetector(model *AcousticModel, cfg ActuatorDetectorConfig) (*ActuatorDetector, error) {
	if cfg.MinThrustFraction <= 0 || cfg.MinThrustFraction >= 1 {
		return nil, fmt.Errorf("soundboost: thrust fraction %g out of (0, 1)", cfg.MinThrustFraction)
	}
	if cfg.DetectWindows < 1 {
		cfg.DetectWindows = 1
	}
	return &ActuatorDetector{cfg: cfg, model: model}, nil
}

// Detect runs the actuator plausibility check over a flight.
func (d *ActuatorDetector) Detect(f *dataset.Flight) (ActuatorVerdict, error) {
	fo, err := observeFlight(d.model, f, nil)
	if err != nil {
		return ActuatorVerdict{}, err
	}
	if len(fo.windows) == 0 {
		return ActuatorVerdict{}, fmt.Errorf("soundboost: flight too short for actuator RCA")
	}
	win := d.model.cfg.Signature.WindowSeconds
	verdict := ActuatorVerdict{MinPredictedG: math.Inf(1)}
	consecutive := 0
	for _, o := range fo.windows {
		g := o.pred.Norm() / sensors.Gravity
		if g < verdict.MinPredictedG {
			verdict.MinPredictedG = g
		}
		if g < d.cfg.MinThrustFraction {
			consecutive++
			if consecutive >= d.cfg.DetectWindows && !verdict.Attacked {
				verdict.Attacked = true
				verdict.DetectionTime = o.t0 + win
			}
		} else {
			consecutive = 0
		}
	}
	return verdict, nil
}
