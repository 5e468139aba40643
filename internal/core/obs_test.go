package soundboost

import (
	"testing"

	"soundboost/internal/obs"
)

// withObs enables the observability layer for one test and restores
// the prior state afterwards.
func withObs(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.Enable()
	t.Cleanup(func() {
		if !prev {
			obs.Disable()
		}
	})
}

// TestStageTimersFireOncePerWindow pins the instrumentation contract:
// the window stage timer records exactly one span per extracted
// signature window, and the filter stage exactly one per extractor.
func TestStageTimersFireOncePerWindow(t *testing.T) {
	f := getFixture(t).train[0]
	cfg := testSignatureConfig()
	withObs(t)

	winTimer := obs.Default.Timer("core.signature.window")
	filterTimer := obs.Default.Timer("core.extract.filter")
	winBefore, filterBefore := winTimer.Count(), filterTimer.Count()

	ex, err := NewExtractor(f.Audio, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := filterTimer.Count() - filterBefore; got != 1 {
		t.Errorf("filter timer fired %d times for one extractor, want 1", got)
	}

	starts := ex.WindowStarts(cfg.WindowSeconds)
	if len(starts) == 0 {
		t.Fatal("no windows in fixture flight")
	}
	for _, t0 := range starts {
		ex.Features(t0, cfg.WindowSeconds)
	}
	if got := winTimer.Count() - winBefore; got != int64(len(starts)) {
		t.Errorf("window timer fired %d times for %d windows", got, len(starts))
	}

	// The contract holds on the parallel path too: BuildWindows fans
	// Features out across the pool but still calls it once per window.
	winBefore = winTimer.Count()
	if _, err := BuildWindows(f, cfg, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := winTimer.Count() - winBefore; got != int64(len(starts)) {
		t.Errorf("BuildWindows fired window timer %d times for %d windows", got, len(starts))
	}
}

// TestDetectorStageTimers pins one span per flight per RCA stage and
// one prediction span per analysed window.
func TestDetectorStageTimers(t *testing.T) {
	fx := getFixture(t)
	withObs(t)

	imuTimer := obs.Default.Timer("core.rca.imu.detect")
	predictTimer := obs.Default.Timer("core.predict")

	imu, err := NewIMUDetector(fx.model, fx.benign(), DefaultIMUDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if obs.Default.Timer("core.calibrate.imu").Count() == 0 {
		t.Error("IMU calibration span not recorded")
	}

	f := fx.heldout[0]
	imuBefore, predBefore := imuTimer.Count(), predictTimer.Count()
	if _, err := imu.Detect(f); err != nil {
		t.Fatal(err)
	}
	if got := imuTimer.Count() - imuBefore; got != 1 {
		t.Errorf("IMU detect timer fired %d times for one flight, want 1", got)
	}

	ex, err := NewExtractor(f.Audio, fx.model.Config().Signature)
	if err != nil {
		t.Fatal(err)
	}
	// Detect predicts once per usable window; rejected windows (nil
	// features or empty telemetry) predict zero times.
	usable := 0
	win := fx.model.Config().Signature.WindowSeconds
	for _, t0 := range ex.WindowStarts(win) {
		if ex.Features(t0, win) != nil && len(f.TelemetryBetween(t0, t0+win)) > 0 {
			usable++
		}
	}
	if got := predictTimer.Count() - predBefore; got != int64(usable) {
		t.Errorf("predict timer fired %d times for %d usable windows", got, usable)
	}
}

// TestAnalyzeOnePassPerFlight pins the one window pass Analyze makes
// over a flight that takes the full pipeline: the channels are filtered
// once and every window on the grid is extracted once, shared by both
// RCA stages.
func TestAnalyzeOnePassPerFlight(t *testing.T) {
	fx := getFixture(t)
	an, err := NewAnalyzer(fx.model, fx.calib)
	if err != nil {
		t.Fatal(err)
	}
	an = an.WithoutTriage()
	f := gpsAttackFlight(t, 2200)
	withObs(t)

	winTimer := obs.Default.Timer("core.signature.window")
	filterTimer := obs.Default.Timer("core.extract.filter")
	winBefore, filterBefore := winTimer.Count(), filterTimer.Count()
	if _, err := an.Analyze(f); err != nil {
		t.Fatal(err)
	}
	if got := filterTimer.Count() - filterBefore; got != 1 {
		t.Errorf("Analyze filtered the recording %d times, want 1", got)
	}
	ex, err := NewExtractor(f.Audio, fx.model.Config().Signature)
	if err != nil {
		t.Fatal(err)
	}
	starts := ex.WindowStarts(fx.model.Config().Signature.WindowSeconds)
	if got := winTimer.Count() - winBefore; got != int64(len(starts)) {
		t.Errorf("Analyze extracted %d windows over a %d-window grid, want one pass", got, len(starts))
	}
}

// TestDisabledLayerRecordsNothing pins the zero-cost contract's
// observable half: with the layer off, pipeline runs leave no trace.
func TestDisabledLayerRecordsNothing(t *testing.T) {
	f := getFixture(t).train[0]
	cfg := testSignatureConfig()
	if obs.Enabled() {
		t.Skip("obs layer enabled by another harness")
	}

	winTimer := obs.Default.Timer("core.signature.window")
	before := winTimer.Count()
	ex, err := NewExtractor(f.Audio, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, t0 := range ex.WindowStarts(cfg.WindowSeconds) {
		ex.Features(t0, cfg.WindowSeconds)
	}
	if got := winTimer.Count() - before; got != 0 {
		t.Errorf("disabled layer recorded %d spans", got)
	}
}
