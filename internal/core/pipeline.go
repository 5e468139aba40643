package soundboost

import (
	"fmt"
	"strings"

	"soundboost/internal/dataset"
	"soundboost/internal/faults"
	"soundboost/internal/kalman"
	"soundboost/internal/triage"
)

// ErrNoFlight is returned by Analyze when given a nil flight or one with
// no telemetry and no audio — there is nothing to attribute a cause to.
// It aliases faults.ErrNoFlight, the repository-wide error set, so
// errors.Is matches under either name.
var ErrNoFlight = faults.ErrNoFlight

// RootCause is the outcome category of a full RCA run.
type RootCause string

const (
	// CauseNone: no sensor compromise found; the failure (if any) was not
	// attack-induced.
	CauseNone RootCause = "none"
	// CauseIMU: the IMU was compromised.
	CauseIMU RootCause = "imu"
	// CauseGPS: the GPS was compromised.
	CauseGPS RootCause = "gps"
	// CauseIMUAndGPS: both sensors were flagged.
	CauseIMUAndGPS RootCause = "imu+gps"
)

// Report is the result of SoundBoost's two-stage post-incident RCA.
type Report struct {
	// Flight names the analysed flight.
	Flight string
	// Cause is the attributed root cause.
	Cause RootCause
	// IMU is the stage-1 verdict.
	IMU IMUVerdict
	// GPS is the stage-2 verdict.
	GPS GPSVerdict
	// GPSMode records which KF variant stage 2 used (audio-only when the
	// IMU was flagged, audio+IMU otherwise).
	GPSMode kalman.Mode
}

// String renders a human-readable RCA summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RCA report for flight %q\n", r.Flight)
	fmt.Fprintf(&b, "  root cause: %s\n", r.Cause)
	if r.IMU.Attacked {
		fmt.Fprintf(&b, "  IMU: ATTACKED (detected at t=%.1fs, %d/%d windows rejected, attack residual std %.2f)\n",
			r.IMU.DetectionTime, r.IMU.WindowsRejected, r.IMU.WindowsTested, r.IMU.AttackStd)
	} else {
		fmt.Fprintf(&b, "  IMU: intact (%d/%d windows rejected)\n", r.IMU.WindowsRejected, r.IMU.WindowsTested)
	}
	switch {
	case r.GPS.Attacked && r.GPS.PeakError > r.GPS.Threshold:
		fmt.Fprintf(&b, "  GPS: SPOOFED (detected at t=%.1fs via %s KF, peak error %.2f > threshold %.2f)\n",
			r.GPS.DetectionTime, r.GPSMode, r.GPS.PeakError, r.GPS.Threshold)
	case r.GPS.Attacked:
		// The running mean and its peak skip a non-finite error, so an
		// alarm whose peak stayed under the threshold was raised by one.
		fmt.Fprintf(&b, "  GPS: SPOOFED (velocity error not finite at t=%.1fs via %s KF, threshold %.2f)\n",
			r.GPS.DetectionTime, r.GPSMode, r.GPS.Threshold)
	default:
		fmt.Fprintf(&b, "  GPS: clean (peak error %.2f <= threshold %.2f via %s KF)\n",
			r.GPS.PeakError, r.GPS.Threshold, r.GPSMode)
	}
	return b.String()
}

// Analyzer bundles the trained model with calibrated detectors and runs
// the full RCA pipeline: first decide whether the IMU can be trusted, then
// run GPS detection with the strongest admissible KF variant. The
// detectors must be built on Model: Analyze predicts each window once and
// both stages read those predictions.
type Analyzer struct {
	// Model is the trained acoustic model.
	Model *AcousticModel
	// IMU is the stage-1 detector.
	IMU *IMUDetector
	// GPSAudioOnly is used when the IMU is flagged compromised.
	GPSAudioOnly *GPSDetector
	// GPSAudioIMU is used when the IMU is trusted.
	GPSAudioIMU *GPSDetector
	// Triage is the optional screening tier (TrainTriage). When attached,
	// flights whose every window screens confident-benign short-circuit
	// Analyze with FastBenignReport instead of running the detectors;
	// any doubt escalates to the full pipeline. Nil disables screening.
	Triage *triage.Model
}

// NewAnalyzer calibrates all detectors from benign flights at their
// default configurations. Each flight gets one window pass on the
// worker pool, shared by the three calibrations. To screen flights,
// set Triage.
func NewAnalyzer(model *AcousticModel, benignFlights []*dataset.Flight) (*Analyzer, error) {
	if model == nil {
		return nil, fmt.Errorf("soundboost: nil model")
	}
	span := analyzerCalibTimer.Start()
	defer span.Stop()
	// One window pass per benign flight feeds all three calibrations.
	benignObs, err := observeFlights(model, benignFlights)
	if err != nil {
		return nil, err
	}
	imu, err := calibrateIMU(model, benignObs, DefaultIMUDetectorConfig())
	if err != nil {
		return nil, fmt.Errorf("soundboost: IMU detector: %w", err)
	}
	audioOnly, err := calibrateGPS(model, benignObs, DefaultGPSDetectorConfig(kalman.ModeAudioOnly))
	if err != nil {
		return nil, fmt.Errorf("soundboost: audio-only GPS detector: %w", err)
	}
	audioIMU, err := calibrateGPS(model, benignObs, DefaultGPSDetectorConfig(kalman.ModeAudioIMU))
	if err != nil {
		return nil, fmt.Errorf("soundboost: audio+IMU GPS detector: %w", err)
	}
	return &Analyzer{Model: model, IMU: imu, GPSAudioOnly: audioOnly, GPSAudioIMU: audioIMU}, nil
}

// WithGPSMargin returns a shallow copy of the analyzer whose GPS
// detector for the named KF variant runs at a different threshold
// margin (see GPSDetector.WithMargin — the rescale is exact, no
// recalibration). The other variant, the IMU detector, and the model
// are shared with the receiver, which stays usable unchanged. Sweeps
// derive one analyzer per (variant, margin) grid cell this way.
func (a *Analyzer) WithGPSMargin(mode kalman.Mode, margin float64) (*Analyzer, error) {
	clone := *a
	switch mode {
	case kalman.ModeAudioOnly:
		d, err := a.GPSAudioOnly.WithMargin(margin)
		if err != nil {
			return nil, err
		}
		clone.GPSAudioOnly = d
	case kalman.ModeAudioIMU:
		d, err := a.GPSAudioIMU.WithMargin(margin)
		if err != nil {
			return nil, err
		}
		clone.GPSAudioIMU = d
	default:
		return nil, fmt.Errorf("soundboost: WithGPSMargin: KF variant must be %q or %q, got %q",
			kalman.ModeAudioOnly, kalman.ModeAudioIMU, mode)
	}
	return &clone, nil
}

// Analyze runs the full two-stage RCA over a flight. A nil or empty
// flight returns ErrNoFlight. On a stage error the partial report still
// carries a coherent GPSMode: the variant stage 2 would have used given
// what stage 1 concluded (audio+IMU until the IMU is flagged). A KF
// error in stage 2 comes with the report over the windows before it,
// as the stream engine's Finish returns it.
func (a *Analyzer) Analyze(f *dataset.Flight) (Report, error) {
	span := analyzeTimer.Start()
	defer span.Stop()
	if f == nil || (len(f.Telemetry) == 0 && (f.Audio == nil || f.Audio.Samples() == 0)) {
		return Report{GPSMode: a.GPSAudioIMU.Mode()}, ErrNoFlight
	}
	// Screening tier: a flight whose every window is confident-benign
	// skips both detector stages. The screen only ever concludes "none",
	// so the verdict cannot flip relative to the full pipeline. The
	// flight's split telemetry serves the screen and the window pass.
	var rows *flightRows
	if a.Triage != nil {
		var benign bool
		if benign, _, rows = a.screenFlight(f); benign {
			reportsFastpath.Inc()
			return FastBenignReport(f.Name, a), nil
		}
	}
	report := Report{Flight: f.Name, GPSMode: a.GPSAudioIMU.Mode()}
	run := a.NewRun()

	// One window pass serves both stages; it runs inside stage 1's span.
	imuVerdict, obs, err := a.IMU.detectFlight(f, rows, run.imu)
	if err != nil {
		return report, fmt.Errorf("soundboost: IMU stage: %w", err)
	}
	report.IMU = imuVerdict
	gps := run.trusted(imuVerdict.Attacked)
	report.GPSMode = gps.cfg.Mode

	// Stage 2 steps only the KF variant stage 1 picked; the stream steps
	// both, since it cannot know the pick in advance.
	gpsSpan := gpsDetectTimer.Start()
	err = gps.observe(obs)
	if err == nil {
		report, err = run.report(f.Name, imuVerdict)
	}
	gpsSpan.Stop()
	if err != nil {
		return report, fmt.Errorf("soundboost: GPS stage: %w", err)
	}
	if report.IMU.Attacked {
		reportsIMU.Inc()
	}
	if report.GPS.Attacked {
		reportsGPS.Inc()
	}
	return report, nil
}
