package soundboost

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"soundboost/internal/acoustics"
	"soundboost/internal/attack"
	"soundboost/internal/dataset"
	"soundboost/internal/kalman"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

func testSignatureConfig() SignatureConfig {
	cfg := dataset.FastGenConfig(sim.HoverMission{Seconds: 1}, 0)
	return DefaultSignatureConfig(cfg.Synth)
}

// fixture builds a small corpus and trained model once for all tests.
type fixture struct {
	train   []*dataset.Flight
	calib   []*dataset.Flight // mission-diverse benign calibration flights
	heldout []*dataset.Flight // unseen benign flights for FP checks
	model   *AcousticModel
}

// benign returns calibration + held-out flights (diverse benign pool).
func (f *fixture) benign() []*dataset.Flight {
	return append(append([]*dataset.Flight(nil), f.calib...), f.heldout...)
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		f := &fixture{}
		missions := []sim.Mission{
			sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14},
			sim.NewWaypointMission("dash", mathx.Vec3{Z: -10}, []sim.Waypoint{
				{Pos: mathx.Vec3{X: 8, Z: -10}, Speed: 2, HoldSeconds: 2},
				{Pos: mathx.Vec3{Z: -10}, Speed: 2, HoldSeconds: 2},
			}),
			sim.NewWaypointMission("column", mathx.Vec3{Z: -10}, []sim.Waypoint{
				{Pos: mathx.Vec3{Z: -14}, Speed: 1.5, HoldSeconds: 2},
				{Pos: mathx.Vec3{Z: -10}, Speed: 1.5, HoldSeconds: 2},
			}),
		}
		seed := int64(100)
		for rep := 0; rep < 2; rep++ {
			for _, m := range missions {
				fl, err := dataset.Generate(dataset.FastGenConfig(m, seed))
				if err != nil {
					fixErr = err
					return
				}
				f.train = append(f.train, fl)
				seed += 7
			}
		}
		// Calibration must span the mission diversity the analyser will
		// see (a hover-only calibration mislabels benign maneuvers).
		for _, m := range missions {
			fl, err := dataset.Generate(dataset.FastGenConfig(m, seed))
			if err != nil {
				fixErr = err
				return
			}
			f.calib = append(f.calib, fl)
			seed += 7
		}
		for i := 0; i < 2; i++ {
			fl, err := dataset.Generate(dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14}, seed))
			if err != nil {
				fixErr = err
				return
			}
			f.heldout = append(f.heldout, fl)
			seed += 7
		}
		mcfg := DefaultMappingConfig(testSignatureConfig())
		mcfg.Hidden = 48
		mcfg.Train.Epochs = 100
		model, _, err := TrainModel(f.train, nil, mcfg)
		if err != nil {
			fixErr = err
			return
		}
		f.model = model
		fix = f
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

func TestSignatureConfigValidate(t *testing.T) {
	good := testSignatureConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*SignatureConfig)
	}{
		{"zero window", func(c *SignatureConfig) { c.WindowSeconds = 0 }},
		{"zero hop", func(c *SignatureConfig) { c.HopSeconds = 0 }},
		{"hop exceeds window", func(c *SignatureConfig) { c.HopSeconds = c.WindowSeconds * 2 }},
		{"zero subframes", func(c *SignatureConfig) { c.SubFrames = 0 }},
		{"no bands", func(c *SignatureConfig) { c.Bands = nil }},
		{"inverted band", func(c *SignatureConfig) { c.Bands[0].Low, c.Bands[0].High = c.Bands[0].High, c.Bands[0].Low }},
		{"empty band", func(c *SignatureConfig) { c.Bands[1].High = c.Bands[1].Low }},
		{"negative band edge", func(c *SignatureConfig) { c.Bands[0].Low = -5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := testSignatureConfig()
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestFeatureDimAndBandIndices(t *testing.T) {
	cfg := testSignatureConfig()
	wantDim := 4*cfg.SubFrames*(len(cfg.Bands)+1) + 2 // +2 attitude features
	if got := cfg.FeatureDim(); got != wantDim {
		t.Errorf("FeatureDim = %d, want %d", got, wantDim)
	}
	if got := cfg.AcousticDim(); got != wantDim-2 {
		t.Errorf("AcousticDim = %d, want %d", got, wantDim-2)
	}
	idx := cfg.BandFeatureIndices("blade")
	if len(idx) != 4*cfg.SubFrames {
		t.Errorf("blade indices = %d, want %d", len(idx), 4*cfg.SubFrames)
	}
	for _, i := range idx {
		if i < 0 || i >= wantDim {
			t.Errorf("index %d out of range", i)
		}
	}
	if got := cfg.BandFeatureIndices("nonexistent"); len(got) != 0 {
		t.Errorf("unknown band indices = %v", got)
	}
}

func TestExtractorFeatures(t *testing.T) {
	f := getFixture(t).train[0]
	cfg := testSignatureConfig()
	ex, err := NewExtractor(f.Audio, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feat := ex.Features(1.0, cfg.WindowSeconds)
	if len(feat) != cfg.AcousticDim() {
		t.Fatalf("acoustic feature dim %d, want %d", len(feat), cfg.AcousticDim())
	}
	for i, v := range feat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d is %v", i, v)
		}
	}
	// Out-of-range windows return nil.
	if ex.Features(-1, cfg.WindowSeconds) != nil {
		t.Error("negative start accepted")
	}
	if ex.Features(1e6, cfg.WindowSeconds) != nil {
		t.Error("past-end window accepted")
	}
	// Augmented (stretched) windows keep the same dimension.
	aug := ex.Features(1.0, cfg.WindowSeconds*5)
	if len(aug) != cfg.AcousticDim() {
		t.Errorf("augmented dim %d, want %d", len(aug), cfg.AcousticDim())
	}
}

func TestExtractorEmptyRecording(t *testing.T) {
	if _, err := NewExtractor(nil, testSignatureConfig()); err == nil {
		t.Error("nil recording accepted")
	}
	// The four mics filter in lockstep, so ragged channels are refused
	// up front.
	rec := &acoustics.Recording{SampleRate: 4000}
	for m := range rec.Channels {
		rec.Channels[m] = make([]float64, 4000)
	}
	rec.Channels[2] = rec.Channels[2][:3999]
	if _, err := NewExtractor(rec, testSignatureConfig()); err == nil {
		t.Error("recording with ragged channels accepted")
	}
}

func TestWindowStarts(t *testing.T) {
	f := getFixture(t).train[0]
	cfg := testSignatureConfig()
	ex, err := NewExtractor(f.Audio, cfg)
	if err != nil {
		t.Fatal(err)
	}
	starts := ex.WindowStarts(cfg.WindowSeconds)
	if len(starts) == 0 {
		t.Fatal("no windows")
	}
	for i := 1; i < len(starts); i++ {
		if math.Abs(starts[i]-starts[i-1]-cfg.HopSeconds) > 1e-9 {
			t.Fatalf("hop irregular at %d", i)
		}
	}
	last := starts[len(starts)-1]
	if last+cfg.WindowSeconds > ex.Duration()+1e-9 {
		t.Error("window exceeds recording")
	}
}

// The central learning claim: the acoustic model predicts IMU acceleration
// with small error on unseen benign data, and the z-axis residuals centre
// near zero (Fig. 6, blue histogram).
func TestModelPredictsAcceleration(t *testing.T) {
	fx := getFixture(t)
	mse, err := EvaluateMSE(fx.model, fx.benign())
	if err != nil {
		t.Fatal(err)
	}
	// Labels include gravity (z ~ -9.8): an unconditional mean predictor
	// would score far worse than 1.0 here.
	if mse > 1.0 {
		t.Errorf("held-out MSE = %v, want < 1.0", mse)
	}
	// Residual mean near zero.
	windows, err := BuildWindows(fx.heldout[0], fx.model.cfg.Signature, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum mathx.Vec3
	for _, w := range windows {
		sum = sum.Add(fx.model.Predict(w.Features).Sub(w.Label))
	}
	mean := sum.Scale(1 / float64(len(windows)))
	if math.Abs(mean.Z) > 0.5 {
		t.Errorf("z residual mean = %v, want ~0", mean.Z)
	}
}

// Counterfactual frequency importance (§IV-A): removing the aerodynamic
// group from the signal must hurt much more than removing the blade group.
func TestFrequencyImportanceOrdering(t *testing.T) {
	fx := getFixture(t)
	base, err := EvaluateMSE(fx.model, fx.benign())
	if err != nil {
		t.Fatal(err)
	}
	gen := dataset.FastGenConfig(sim.HoverMission{Seconds: 1}, 0)
	noAero, err := EvaluateMSEBandRemoved(fx.model, fx.benign(), gen.Synth.AeroFreq, 3)
	if err != nil {
		t.Fatal(err)
	}
	bladeCenter := float64(gen.Synth.Blades) * gen.Synth.HoverSpeed / (2 * math.Pi)
	noBlade, err := EvaluateMSEBandRemoved(fx.model, fx.benign(), bladeCenter, 3)
	if err != nil {
		t.Fatal(err)
	}
	if noAero <= base {
		t.Errorf("removing aero did not hurt: %v <= %v", noAero, base)
	}
	if noAero <= noBlade {
		t.Errorf("aero removal (%v) should hurt more than blade removal (%v)", noAero, noBlade)
	}
}

// PredictMasked zeroes feature columns in normalised space; masking all
// features must change the prediction toward the label mean.
func TestPredictMasked(t *testing.T) {
	fx := getFixture(t)
	windows, err := BuildWindows(fx.heldout[0], fx.model.cfg.Signature, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := windows[0]
	all := make([]int, len(w.Features))
	for i := range all {
		all[i] = i
	}
	masked := fx.model.PredictMasked(w.Features, all)
	unmasked := fx.model.Predict(w.Features)
	if masked == unmasked {
		t.Error("masking all features did not change the prediction")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	fx := getFixture(t)
	var buf bytes.Buffer
	if err := fx.model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := BuildWindows(fx.heldout[0], fx.model.cfg.Signature, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range windows[:5] {
		a := fx.model.Predict(w.Features)
		b := loaded.Predict(w.Features)
		if a.Sub(b).Norm() > 1e-9 {
			t.Fatalf("prediction mismatch after round trip: %v vs %v", a, b)
		}
	}
}

func TestLoadModelCorrupt(t *testing.T) {
	if _, err := LoadModel(bytes.NewBufferString("{")); err == nil {
		t.Error("corrupt model accepted")
	}
}

func imuAttackFlight(t *testing.T, mode attack.IMUBiasMode, seed int64) *dataset.Flight {
	t.Helper()
	cfg := dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14}, seed)
	biaser := &attack.IMUBiaser{
		Window: attack.Window{Start: 5, End: 11},
		Mode:   mode,
		Axis:   mathx.Vec3{Z: 1},
	}
	switch mode {
	case attack.IMUSideSwing:
		biaser.Axis = mathx.Vec3{X: 1}
		biaser.Magnitude = 1.2
		biaser.RampSeconds = 1
		biaser.OscillateHz = 0.9
	case attack.IMUAccelDoS:
		biaser.Magnitude = 3
		biaser.Rng = rand.New(rand.NewSource(seed))
	}
	cfg.Scenario = attack.Scenario{IMU: biaser}
	f, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestIMUDetectorFlagsAttacks(t *testing.T) {
	fx := getFixture(t)
	det, err := NewIMUDetector(fx.model, fx.calib, DefaultIMUDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []attack.IMUBiasMode{attack.IMUAccelDoS, attack.IMUSideSwing} {
		t.Run(string(mode), func(t *testing.T) {
			f := imuAttackFlight(t, mode, 900+int64(len(mode)))
			v, err := det.Detect(f)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Attacked {
				t.Fatalf("attack not detected: %+v", v)
			}
			if v.DetectionTime < 5 || v.DetectionTime > 13 {
				t.Errorf("detection at t=%v, attack window [5,11)", v.DetectionTime)
			}
		})
	}
}

func TestIMUDetectorQuietOnBenign(t *testing.T) {
	fx := getFixture(t)
	det, err := NewIMUDetector(fx.model, fx.calib, DefaultIMUDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	v, err := det.Detect(fx.heldout[0])
	if err != nil {
		t.Fatal(err)
	}
	if v.Attacked {
		t.Errorf("false positive on benign flight: %+v", v)
	}
}

func TestIMUDetectorInvalidMargin(t *testing.T) {
	fx := getFixture(t)
	cfg := DefaultIMUDetectorConfig()
	cfg.StatMargin = 0.5
	if _, err := NewIMUDetector(fx.model, fx.calib, cfg); err == nil {
		t.Error("margin below 1 accepted")
	}
	if _, err := NewIMUDetector(fx.model, nil, DefaultIMUDetectorConfig()); err == nil {
		t.Error("no calibration flights accepted")
	}
}

func TestResidualHistogramWidensUnderAttack(t *testing.T) {
	fx := getFixture(t)
	det, err := NewIMUDetector(fx.model, fx.calib, DefaultIMUDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	benignHist, err := det.ResidualHistogram(fx.heldout[0], -6, 6, 40)
	if err != nil {
		t.Fatal(err)
	}
	attackHist, err := det.ResidualHistogram(imuAttackFlight(t, attack.IMUAccelDoS, 777), -6, 6, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Attack mass in the tails (|r| > 2) must exceed benign tail mass.
	tailMass := func(h interface {
		BinCenter(int) float64
		Density(int) float64
	}, bins int) float64 {
		var m float64
		for i := 0; i < bins; i++ {
			if c := h.BinCenter(i); c < -2 || c > 2 {
				m += h.Density(i)
			}
		}
		return m
	}
	if tailMass(attackHist, 40) <= tailMass(benignHist, 40) {
		t.Error("attack histogram tails not heavier than benign")
	}
}

func gpsAttackFlight(t *testing.T, seed int64) *dataset.Flight {
	t.Helper()
	cfg := dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 20}, seed)
	// Drift-mode takeover: real spoofers drag the reported position away
	// gradually (a 10 m static jump would be shed by the EKF's innovation
	// gate, and full trust in it produces an unphysical runaway).
	cfg.Scenario = attack.Scenario{
		GPS: &attack.GPSSpoofer{
			Window:      attack.Window{Start: 6, End: 18},
			Mode:        attack.GPSSpoofDrift,
			SpoofOffset: mathx.Vec3{X: 24}, // 2 m/s pull
		},
	}
	f, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGPSDetectorFlagsSpoofing(t *testing.T) {
	fx := getFixture(t)
	for _, mode := range []kalman.Mode{kalman.ModeAudioOnly, kalman.ModeAudioIMU} {
		t.Run(string(mode), func(t *testing.T) {
			det, err := NewGPSDetector(fx.model, fx.calib, DefaultGPSDetectorConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			f := gpsAttackFlight(t, 1200+int64(len(mode)))
			v, err := det.Detect(f)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Attacked {
				t.Fatalf("spoof not detected (peak %v, threshold %v)", v.PeakError, v.Threshold)
			}
			if v.DetectionTime < 6 {
				t.Errorf("detection at t=%v before attack onset", v.DetectionTime)
			}
		})
	}
}

func TestGPSDetectorQuietOnBenign(t *testing.T) {
	fx := getFixture(t)
	det, err := NewGPSDetector(fx.model, fx.calib, DefaultGPSDetectorConfig(kalman.ModeAudioIMU))
	if err != nil {
		t.Fatal(err)
	}
	v, err := det.Detect(fx.heldout[0])
	if err != nil {
		t.Fatal(err)
	}
	if v.Attacked {
		t.Errorf("false positive on benign flight: %+v", v)
	}
}

func TestGPSDetectorNeedsCalibration(t *testing.T) {
	fx := getFixture(t)
	if _, err := NewGPSDetector(fx.model, nil, DefaultGPSDetectorConfig(kalman.ModeAudioIMU)); err == nil {
		t.Error("no calibration flights accepted")
	}
	// A benign flight with no usable GPS window gives calibration
	// nothing to measure, even though Analyze reports one clean.
	noGPS := *fx.calib[0]
	noGPS.Telemetry = slices.Clone(noGPS.Telemetry)
	for i := range noGPS.Telemetry {
		noGPS.Telemetry[i].GPSVel.X = math.NaN()
	}
	calib := append([]*dataset.Flight{&noGPS}, fx.calib[1:]...)
	if _, err := NewGPSDetectors(fx.model, calib, DefaultGPSDetectorConfig(kalman.ModeAudioIMU)); err == nil {
		t.Error("a calibration flight without a usable GPS window accepted")
	}
}

func TestGPSTraceShape(t *testing.T) {
	fx := getFixture(t)
	det, err := NewGPSDetector(fx.model, fx.calib, DefaultGPSDetectorConfig(kalman.ModeAudioIMU))
	if err != nil {
		t.Fatal(err)
	}
	f := gpsAttackFlight(t, 1500)
	trace, err := det.Trace(f)
	if err != nil {
		t.Fatal(err)
	}
	n := len(trace.Time)
	if n == 0 || len(trace.FusedVel) != n || len(trace.GPSVel) != n ||
		len(trace.FusedPos) != n || len(trace.RunningError) != n {
		t.Fatalf("ragged trace: %d/%d/%d/%d/%d", n, len(trace.FusedVel), len(trace.GPSVel), len(trace.FusedPos), len(trace.RunningError))
	}
	// During the spoof the fused and GPS velocities must diverge (Fig. 7).
	var maxGap float64
	for i, tm := range trace.Time {
		if tm > 8 && tm < 18 {
			if gap := trace.FusedVel[i].Sub(trace.GPSVel[i]).Norm(); gap > maxGap {
				maxGap = gap
			}
		}
	}
	if maxGap < 0.3 {
		t.Errorf("fused-vs-GPS velocity gap %v during spoof, want > 0.3", maxGap)
	}
}

func TestAnalyzerRootCauses(t *testing.T) {
	fx := getFixture(t)
	an, err := NewAnalyzer(fx.model, fx.calib)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("benign", func(t *testing.T) {
		r, err := an.Analyze(fx.heldout[0])
		if err != nil {
			t.Fatal(err)
		}
		if r.Cause != CauseNone {
			t.Errorf("benign cause = %v", r.Cause)
		}
		if r.GPSMode != kalman.ModeAudioIMU {
			t.Errorf("benign GPS mode = %v, want audio+imu", r.GPSMode)
		}
	})
	t.Run("imu attack", func(t *testing.T) {
		r, err := an.Analyze(imuAttackFlight(t, attack.IMUAccelDoS, 2100))
		if err != nil {
			t.Fatal(err)
		}
		if r.Cause != CauseIMU && r.Cause != CauseIMUAndGPS {
			t.Errorf("imu attack cause = %v", r.Cause)
		}
		if !r.IMU.Attacked {
			t.Error("IMU verdict not attacked")
		}
		if r.GPSMode != kalman.ModeAudioOnly {
			t.Errorf("GPS mode = %v, want audio-only after IMU flag", r.GPSMode)
		}
	})
	t.Run("gps attack", func(t *testing.T) {
		r, err := an.Analyze(gpsAttackFlight(t, 2200))
		if err != nil {
			t.Fatal(err)
		}
		if r.Cause != CauseGPS {
			t.Errorf("gps attack cause = %v", r.Cause)
		}
		if r.GPSMode != kalman.ModeAudioIMU {
			t.Errorf("GPS mode = %v, want audio+imu with intact IMU", r.GPSMode)
		}
	})
}

func TestAnalyzerNilModel(t *testing.T) {
	if _, err := NewAnalyzer(nil, nil); err == nil {
		t.Error("nil model accepted")
	}
}

func TestReportString(t *testing.T) {
	r := Report{
		Flight:  "f1",
		Cause:   CauseGPS,
		GPS:     GPSVerdict{Attacked: true, DetectionTime: 42, PeakError: 3, Threshold: 1},
		GPSMode: kalman.ModeAudioIMU,
	}
	s := r.String()
	for _, want := range []string{"f1", "gps", "SPOOFED", "42.0"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestTrainModelNoWindows(t *testing.T) {
	cfg := DefaultMappingConfig(testSignatureConfig())
	if _, _, err := TrainModel(nil, nil, cfg); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestActuatorDetector(t *testing.T) {
	fx := getFixture(t)
	det, err := NewActuatorDetector(fx.model, DefaultActuatorDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Benign flight: predicted thrust stays near 1 g the whole time.
	v, err := det.Detect(fx.heldout[0])
	if err != nil {
		t.Fatal(err)
	}
	if v.Attacked {
		t.Errorf("benign flight flagged as actuator outage: %+v", v)
	}
	if v.MinPredictedG < 0.7 {
		t.Errorf("benign min predicted thrust %.2f g implausibly low", v.MinPredictedG)
	}

	// Actuator DoS flight: block waveform idles all motors 60%% of each
	// second — the rotors go quiet and the model predicts sub-flight
	// thrust (paper §V-B).
	cfg := dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -30}, Seconds: 12}, 3100)
	cfg.Scenario = attack.Scenario{
		Actuator: &attack.ActuatorDoS{
			Window:        attack.Window{Start: 4, End: 10},
			PeriodSeconds: 1.2,
			DutyOff:       0.6,
			IdleSpeed:     120,
		},
	}
	f, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Scenario.Kind != "actuator-dos" {
		t.Fatalf("Kind = %q", f.Scenario.Kind)
	}
	v, err = det.Detect(f)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Attacked {
		t.Fatalf("actuator outage missed: min predicted %.2f g", v.MinPredictedG)
	}
	if v.DetectionTime < 4 || v.DetectionTime > 11 {
		t.Errorf("detection at t=%.1f, attack window [4,10)", v.DetectionTime)
	}
}

func TestActuatorDetectorConfigValidation(t *testing.T) {
	fx := getFixture(t)
	cfg := DefaultActuatorDetectorConfig()
	cfg.MinThrustFraction = 0
	if _, err := NewActuatorDetector(fx.model, cfg); err == nil {
		t.Error("zero thrust fraction accepted")
	}
	cfg.MinThrustFraction = 1.5
	if _, err := NewActuatorDetector(fx.model, cfg); err == nil {
		t.Error("thrust fraction above 1 accepted")
	}
}

func TestAnalyzerSaveLoadRoundTrip(t *testing.T) {
	fx := getFixture(t)
	an, err := NewAnalyzer(fx.model, fx.calib)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := an.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAnalyzer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Thresholds survive exactly.
	if loaded.IMU.StatThreshold() != an.IMU.StatThreshold() ||
		loaded.IMU.StdThreshold() != an.IMU.StdThreshold() {
		t.Error("IMU thresholds changed in round trip")
	}
	if loaded.GPSAudioOnly.Threshold() != an.GPSAudioOnly.Threshold() ||
		loaded.GPSAudioIMU.Threshold() != an.GPSAudioIMU.Threshold() {
		t.Error("GPS thresholds changed in round trip")
	}
	// Verdicts agree on a real flight.
	f := gpsAttackFlight(t, 4200)
	r1, err := an.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loaded.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cause != r2.Cause {
		t.Errorf("cause changed in round trip: %v vs %v", r1.Cause, r2.Cause)
	}
}

func TestAnalyzerSavePartial(t *testing.T) {
	an := &Analyzer{}
	var buf bytes.Buffer
	if err := an.Save(&buf); err == nil {
		t.Error("partial analyzer saved")
	}
	if _, err := LoadAnalyzer(bytes.NewBufferString("{")); err == nil {
		t.Error("corrupt analyzer loaded")
	}
}

// Paper §V-B: on a vehicle with redundant IMUs, per-stream detectors with
// separately learned thresholds attribute a primary-tuned injection to the
// primary unit while the redundant unit stays clean.
func TestMultiIMUAttribution(t *testing.T) {
	fx := getFixture(t)
	gen := func(seed int64, attacked bool) *dataset.Flight {
		cfg := dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14}, seed)
		cfg.World.AuxIMUs = 1
		if attacked {
			cfg.Scenario = attack.Scenario{IMU: &attack.IMUBiaser{
				Window:    attack.Window{Start: 5, End: 11},
				Mode:      attack.IMUAccelDoS,
				Axis:      mathx.Vec3{Z: 1},
				Magnitude: 3,
				Rng:       rand.New(rand.NewSource(seed)),
			}}
		}
		f, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// Calibrate one detector per stream on benign multi-IMU flights.
	var calib []*dataset.Flight
	for i := int64(0); i < 3; i++ {
		calib = append(calib, gen(5000+i*7, false))
	}
	primaryCfg := DefaultIMUDetectorConfig()
	primary, err := NewIMUDetector(fx.model, calib, primaryCfg)
	if err != nil {
		t.Fatal(err)
	}
	auxCfg := DefaultIMUDetectorConfig()
	auxCfg.Stream = 1
	aux, err := NewIMUDetector(fx.model, calib, auxCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Thresholds are learned separately per unit.
	if primary.StatThreshold() == aux.StatThreshold() && primary.StdThreshold() == aux.StdThreshold() {
		t.Error("per-stream thresholds identical; expected separate calibration")
	}

	attacked := gen(6000, true)
	vPrimary, err := primary.Detect(attacked)
	if err != nil {
		t.Fatal(err)
	}
	vAux, err := aux.Detect(attacked)
	if err != nil {
		t.Fatal(err)
	}
	if !vPrimary.Attacked {
		t.Error("primary-stream detector missed the injection")
	}
	if vAux.Attacked {
		t.Error("redundant-stream detector alarmed on an honest unit")
	}
}
