package experiments

import (
	"fmt"
	"strings"

	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/kalman"
	"soundboost/internal/stats"
)

// AblationRow is one detector variant's result in the design-choice
// ablation.
type AblationRow struct {
	// Variant names the configuration.
	Variant string
	// TPR and FPR over the subsampled period set.
	TPR float64
	FPR float64
	// Threshold is the variant's calibrated threshold.
	Threshold float64
}

// AblationResult compares the GPS RCA design choices: the full audio+IMU
// pipeline against variants with alignment, bias tracking, or adaptive
// measurement trust disabled.
type AblationResult struct {
	Rows []AblationRow
}

// String renders the comparison.
func (r AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s %6s %10s\n", "Variant", "TPR", "FPR", "Threshold")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %6.2f %6.2f %10.2f\n", row.Variant, row.TPR, row.FPR, row.Threshold)
	}
	return b.String()
}

// RunKFAblation evaluates the GPS-stage design choices over the Tab. III
// period subsample. Each variant is recalibrated on the lab's GPS
// calibration corpus so thresholds stay fair.
func RunKFAblation(lab *Lab, logf func(string, ...any)) (AblationResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	scale := lab.Scale

	variants := []struct {
		name   string
		mutate func(*soundboost.GPSDetectorConfig)
	}{
		{"full audio+imu", func(c *soundboost.GPSDetectorConfig) {}},
		{"no alignment", func(c *soundboost.GPSDetectorConfig) { c.AlignSeconds = 0 }},
		{"no bias tracking", func(c *soundboost.GPSDetectorConfig) { c.BiasTauSeconds = 0 }},
		{"no adaptive trust", func(c *soundboost.GPSDetectorConfig) { c.Velocity.AdaptiveR = false }},
		{"audio-only kf", func(c *soundboost.GPSDetectorConfig) {
			c.Mode = kalman.ModeAudioOnly
			c.Velocity = kalman.DefaultVelocityConfig(kalman.ModeAudioOnly)
		}},
	}

	// Shared period subsample (same as Tab. III).
	var specs []PeriodSpec
	var nb, na int
	for _, spec := range scale.GPSPeriods() {
		if spec.Attack && na < scale.Tab3Attack {
			specs = append(specs, spec)
			na++
		}
		if !spec.Attack && nb < scale.Tab3Benign {
			specs = append(specs, spec)
			nb++
		}
	}
	flights := make([]*flightWithSpec, 0, len(specs))
	for _, spec := range specs {
		f, err := scale.GeneratePeriod(spec)
		if err != nil {
			return AblationResult{}, err
		}
		flights = append(flights, &flightWithSpec{flight: f, attack: spec.Attack})
	}

	// Every variant calibrates from one pass over the GPS corpus.
	cfgs := make([]soundboost.GPSDetectorConfig, len(variants))
	for i, v := range variants {
		cfgs[i] = soundboost.DefaultGPSDetectorConfig(kalman.ModeAudioIMU)
		v.mutate(&cfgs[i])
	}
	dets, err := soundboost.NewGPSDetectors(lab.Model, lab.GPSCalib, cfgs...)
	if err != nil {
		return AblationResult{}, fmt.Errorf("experiments: ablation: %w", err)
	}

	var result AblationResult
	for i, v := range variants {
		det := dets[i]
		var counts stats.ConfusionCounts
		for _, fw := range flights {
			verdict, err := det.Detect(fw.flight)
			if err != nil {
				return AblationResult{}, err
			}
			counts.Record(fw.attack, verdict.Attacked)
		}
		row := AblationRow{Variant: v.name, TPR: counts.TPR(), FPR: counts.FPR(), Threshold: det.Threshold()}
		result.Rows = append(result.Rows, row)
		logf("ablation %-20s TPR %.2f FPR %.2f", v.name, row.TPR, row.FPR)
	}
	return result, nil
}

type flightWithSpec struct {
	flight *dataset.Flight
	attack bool
}
