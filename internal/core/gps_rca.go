package soundboost

import (
	"fmt"
	"math"

	"soundboost/internal/dataset"
	"soundboost/internal/kalman"
	"soundboost/internal/mathx"
	"soundboost/internal/sensors"
	"soundboost/internal/stats"
)

// GPSDetectorConfig tunes the GPS-spoofing RCA stage (§III-C2).
type GPSDetectorConfig struct {
	// Mode selects the KF variant (audio-only / audio+IMU / imu-only).
	Mode kalman.Mode
	// ThresholdMargin scales the calibrated benign threshold (>= 1).
	ThresholdMargin float64
	// PeakQuantile sets the threshold at this quantile of the benign
	// per-flight peak errors before the margin. The paper thresholds at
	// "the maximum running mean error of the benign cases after removing
	// outliers" — and its own benign false-positive rates (0.10-0.23)
	// show the removed 'outliers' are the top of the benign distribution,
	// i.e. the threshold sits inside it.
	PeakQuantile float64
	// ErrorAlpha is the exponential running-mean weight of the error
	// monitor.
	ErrorAlpha float64
	// AlignSeconds is the alignment phase at the start of each analysed
	// period: the constant bias of the audio (and IMU) acceleration stream
	// is estimated against GPS velocity deltas and removed before
	// integration. Per the threat model, attacks begin after take-off, so
	// the opening seconds are trustworthy; without alignment, an
	// acceleration bias of b m/s^2 drifts the velocity estimate by b*T
	// over a T-second period and swamps the spoofing signal.
	AlignSeconds float64
	// BiasTauSeconds continues tracking the slow acceleration bias after
	// alignment with this EWMA time constant, using GPS velocity
	// *derivatives* as the reference. Differentiation makes the tracker
	// transparent to the constant velocity offset a drift spoof injects
	// (it differentiates to zero) while absorbing slowly-varying benign
	// bias such as wind drag. 0 disables tracking.
	BiasTauSeconds float64
	// Velocity configures the underlying Kalman fusion.
	Velocity kalman.VelocityConfig
}

// DefaultGPSDetectorConfig returns the tuned configuration for a mode.
func DefaultGPSDetectorConfig(mode kalman.Mode) GPSDetectorConfig {
	return GPSDetectorConfig{
		Mode:            mode,
		ThresholdMargin: 1.1,
		PeakQuantile:    0.8,
		ErrorAlpha:      0.05,
		AlignSeconds:    5,
		BiasTauSeconds:  8,
		Velocity:        kalman.DefaultVelocityConfig(mode),
	}
}

// GPSTrace is the per-window diagnostic series of one flight's GPS RCA —
// the raw material for Fig. 7.
type GPSTrace struct {
	// Time is the window end time (s).
	Time []float64
	// FusedVel is the KF velocity estimate (NED).
	FusedVel []mathx.Vec3
	// GPSVel is the reported GPS velocity (NED).
	GPSVel []mathx.Vec3
	// FusedPos integrates FusedVel (SoundBoost's position estimate).
	FusedPos []mathx.Vec3
	// RunningError is the monitored running-mean velocity error.
	RunningError []float64
}

// GPSVerdict is the outcome of the GPS RCA stage on one flight period.
type GPSVerdict struct {
	// Attacked reports whether GPS spoofing was flagged.
	Attacked bool
	// DetectionTime is the flight time (s) when the running error first
	// crossed the threshold (valid when Attacked).
	DetectionTime float64
	// PeakError is the maximum running-mean error observed.
	PeakError float64
	// Threshold is the detector threshold used.
	Threshold float64
}

// GPSDetector flags GPS spoofing by fusing audio (and optionally IMU)
// acceleration into a velocity estimate and monitoring the running mean of
// its disagreement with GPS-reported velocity.
type GPSDetector struct {
	cfg       GPSDetectorConfig
	model     *AcousticModel
	threshold float64
}

// NewGPSDetector calibrates the detection threshold on benign flights:
// the maximum benign running-mean error after outlier removal, scaled by
// the margin. It is the one-config case of NewGPSDetectors.
func NewGPSDetector(model *AcousticModel, benignFlights []*dataset.Flight, cfg GPSDetectorConfig) (*GPSDetector, error) {
	dets, err := NewGPSDetectors(model, benignFlights, cfg)
	if err != nil {
		return nil, err
	}
	return dets[0], nil
}

// NewGPSDetectors calibrates one detector per config from a single
// window pass over the benign flights, so N variants (KF modes,
// ablations) cost one observation pass instead of N. Detector i is
// identical to NewGPSDetector(model, benignFlights, cfgs[i]).
func NewGPSDetectors(model *AcousticModel, benignFlights []*dataset.Flight, cfgs ...GPSDetectorConfig) ([]*GPSDetector, error) {
	obs, err := observeFlights(model, benignFlights)
	if err != nil {
		return nil, err
	}
	dets := make([]*GPSDetector, len(cfgs))
	for i, cfg := range cfgs {
		if dets[i], err = calibrateGPS(model, obs, cfg); err != nil {
			return nil, err
		}
	}
	return dets, nil
}

// calibrateGPS fits the threshold from benign flights' window
// observations: each flight's peak error is the detection recursion's
// own, run with its alarm disabled.
func calibrateGPS(model *AcousticModel, benignObs []*flightObs, cfg GPSDetectorConfig) (*GPSDetector, error) {
	if cfg.ThresholdMargin < 1 {
		cfg.ThresholdMargin = 1
	}
	if len(benignObs) == 0 {
		return nil, fmt.Errorf("soundboost: GPS detector needs benign calibration flights")
	}
	if cfg.PeakQuantile <= 0 || cfg.PeakQuantile > 1 {
		cfg.PeakQuantile = 0.75
	}
	d := &GPSDetector{cfg: cfg, model: model, threshold: math.Inf(1)}
	span := gpsCalibTimer.Start()
	defer span.Stop()
	peaks := make([]float64, len(benignObs))
	for i, fo := range benignObs {
		v, err := d.verdict(fo, nil)
		if err != nil {
			return nil, err
		}
		peaks[i] = v.PeakError
	}
	d.threshold = stats.Quantile(peaks, cfg.PeakQuantile) * cfg.ThresholdMargin
	if d.threshold <= 0 {
		return nil, fmt.Errorf("soundboost: degenerate GPS threshold %g", d.threshold)
	}
	return d, nil
}

// Threshold returns the calibrated alarm threshold.
func (d *GPSDetector) Threshold() float64 { return d.threshold }

// WithMargin returns a copy of the detector operating at a different
// threshold margin, re-derived exactly from the calibrated base: the
// threshold is benign-quantile × margin, so rescaling by
// margin/cfg.ThresholdMargin reproduces what a fresh calibration at the
// new margin would have produced — without re-running the benign
// flights. Sweeps use it to walk an operating curve from one
// calibration. margin must be positive (margins below 1 deliberately
// trade false positives for detection latency; NewGPSDetector clamps
// them, WithMargin does not).
func (d *GPSDetector) WithMargin(margin float64) (*GPSDetector, error) {
	if margin <= 0 {
		return nil, fmt.Errorf("soundboost: WithMargin: margin must be positive, got %g", margin)
	}
	d2 := *d
	d2.threshold = d.threshold / d.cfg.ThresholdMargin * margin
	d2.cfg.ThresholdMargin = margin
	return &d2, nil
}

// Config returns the detector's configuration (after calibration-time
// normalisation).
func (d *GPSDetector) Config() GPSDetectorConfig { return d.cfg }

// Mode returns the detector's KF mode.
func (d *GPSDetector) Mode() kalman.Mode { return d.cfg.Mode }

// Detect runs GPS RCA over a flight and returns the verdict.
func (d *GPSDetector) Detect(f *dataset.Flight) (GPSVerdict, error) {
	span := gpsDetectTimer.Start()
	defer span.Stop()
	fo, err := observeFlight(d.model, f, nil)
	if err != nil {
		return GPSVerdict{}, err
	}
	return d.verdict(fo, nil)
}

// Trace exposes the full diagnostic series (Fig. 7).
func (d *GPSDetector) Trace(f *dataset.Flight) (*GPSTrace, error) {
	fo, err := observeFlight(d.model, f, nil)
	if err != nil {
		return nil, err
	}
	trace := &GPSTrace{}
	if _, err := d.verdict(fo, trace); err != nil {
		return nil, err
	}
	return trace, nil
}

// verdict drives one GPS monitor over a flight's windows. A non-nil
// trace records every KF step. A flight with no window holding a GPS
// fix fails: there is nothing to calibrate on or to trace. Analyze
// instead reports such a flight clean, as the stream engine does.
func (d *GPSDetector) verdict(fo *flightObs, trace *GPSTrace) (GPSVerdict, error) {
	m := d.newMonitor()
	m.trace = trace
	if err := m.observe(fo); err != nil {
		return GPSVerdict{}, err
	}
	if !m.seen {
		return GPSVerdict{}, fmt.Errorf("soundboost: no usable windows for GPS RCA")
	}
	return m.Verdict()
}

// observe feeds the monitor a flight's windows, seeded from the
// flight's first admitted GPS fix (pre-attack per the threat model), as
// the stream engine seeds.
func (g *gpsMonitor) observe(fo *flightObs) error {
	if len(fo.rows.gps) > 0 {
		first := fo.rows.gps[0]
		if err := g.Seed(first.Vel); err != nil {
			return err
		}
		g.pos = first.Pos
	}
	for _, w := range fo.windows {
		g.addWindow(w)
	}
	return nil
}

// gpsObs is one window's input to the GPS stage: the window index (which
// exposes holes left by skipped windows), the window end time, the audio
// and IMU acceleration in NED with gravity restored, and the window-mean
// GPS velocity.
type gpsObs struct {
	winIdx   int
	t        float64
	audioNED mathx.Vec3
	imuNED   mathx.Vec3
	gpsVel   mathx.Vec3
}

// newGPSObs builds a window's observation from its body-frame audio
// prediction, window-mean IMU specific force and GPS velocity, and the
// mid-window attitude. The GPS mean, not a point fix, is the reference:
// the fused estimate integrates window-mean accelerations, so the
// reference must share its timebase or turns read as spurious error.
func newGPSObs(winIdx int, tEnd float64, att mathx.Quat, predBody, imuBody, gpsVel mathx.Vec3) gpsObs {
	gravity := mathx.Vec3{Z: sensors.Gravity}
	return gpsObs{
		winIdx:   winIdx,
		t:        tEnd,
		audioNED: att.Rotate(predBody).Add(gravity),
		imuNED:   att.Rotate(imuBody).Add(gravity),
		gpsVel:   gpsVel,
	}
}

// gpsMonitor is the GPS RCA stage as a window-by-window recursion, and
// its only implementation: Detect, Trace, calibration and Run (which
// Analyze and the stream engine drive) all feed it. It buffers
// observations through the alignment phase, estimates the constant
// acceleration biases against GPS velocity deltas, replays the buffer
// through the KF, then keeps stepping the KF, the bias EWMA and the
// running-mean error monitor live.
type gpsMonitor struct {
	cfg       GPSDetectorConfig
	threshold float64
	hop       float64

	est     *kalman.VelocityEstimator
	monitor stats.RunningMean
	aligned bool
	buf     []gpsObs
	alignN  int

	audioBias  mathx.Vec3
	imuBias    mathx.Vec3
	idx        int
	prevGPSVel mathx.Vec3

	// seen/lastWinIdx detect holes in the observation sequence (skipped
	// windows). The error monitor is calibrated on contiguous benign
	// windows, so a hole ends the current analysis segment rather than
	// stepping the KF across it with a distorted timebase.
	seen       bool
	lastWinIdx int

	// trace, when set, records every KF step; pos integrates the fused
	// velocity for it.
	trace *GPSTrace
	pos   mathx.Vec3

	verdict GPSVerdict
	err     error
}

// newMonitor returns a fresh, unseeded monitor at the detector's
// calibrated threshold.
func (d *GPSDetector) newMonitor() *gpsMonitor {
	return &gpsMonitor{
		cfg:       d.cfg,
		threshold: d.threshold,
		hop:       d.model.cfg.Signature.HopSeconds,
		monitor:   stats.RunningMean{Alpha: d.cfg.ErrorAlpha},
		verdict:   GPSVerdict{Threshold: d.threshold},
	}
}

// Seed starts the KF from the first GPS velocity fix; later calls are
// no-ops. Observations added before the monitor is seeded are dropped:
// there is nothing to fuse against.
func (g *gpsMonitor) Seed(v0 mathx.Vec3) error {
	if g.est != nil {
		return nil
	}
	est, err := kalman.NewVelocityEstimator(g.cfg.Velocity, v0)
	if err != nil {
		return err
	}
	g.est = est
	return nil
}

// addWindow feeds a window's observation, if it has GPS fixes.
func (g *gpsMonitor) addWindow(w *window) {
	if w.hasGPS {
		g.Add(w.nav)
	}
}

// Add feeds one window observation in window order. A hole in the
// window sequence pauses the monitor: the current segment is closed (a
// partial alignment phase finishes with monitoring off) and a fresh
// alignment phase begins on the next contiguous run, re-anchored at its
// first GPS reading. The verdict accumulates across segments.
func (g *gpsMonitor) Add(o gpsObs) {
	if g.err != nil {
		return
	}
	if g.seen && o.winIdx > g.lastWinIdx+1 {
		g.restartSegment(o)
		if g.err != nil {
			return
		}
	}
	g.seen = true
	g.lastWinIdx = o.winIdx
	if !g.aligned {
		if g.cfg.AlignSeconds > 0 {
			if len(g.buf) == 0 || o.t-g.buf[0].t <= g.cfg.AlignSeconds {
				g.buf = append(g.buf, o)
				return
			}
			// o is the first observation past the alignment horizon:
			// finalize the bias estimate and catch up.
			g.finishAlign()
		} else {
			g.aligned = true
		}
	}
	g.step(o)
}

// finishAlign estimates the constant acceleration bias of each stream
// against the GPS velocity delta over the buffered alignment phase, then
// replays the buffer through the KF with the error monitor off.
func (g *gpsMonitor) finishAlign() {
	g.aligned = true
	g.alignN = len(g.buf)
	if g.cfg.AlignSeconds > 0 && g.alignN > 1 {
		var audioInt, imuInt mathx.Vec3
		for _, o := range g.buf {
			audioInt = audioInt.Add(o.audioNED.Scale(g.hop))
			imuInt = imuInt.Add(o.imuNED.Scale(g.hop))
		}
		alignT := float64(g.alignN) * g.hop
		dv := g.buf[g.alignN-1].gpsVel.Sub(g.buf[0].gpsVel)
		g.audioBias = audioInt.Sub(dv).Scale(1 / alignT)
		g.imuBias = imuInt.Sub(dv).Scale(1 / alignT)
	}
	for _, o := range g.buf {
		g.step(o)
	}
	g.buf = nil
}

func (g *gpsMonitor) step(o gpsObs) {
	if g.est == nil || g.err != nil {
		return
	}
	i := g.idx
	if g.cfg.BiasTauSeconds > 0 && i >= 1 && i >= g.alignN {
		// Slow bias tracking against the GPS velocity derivative.
		gpsAccel := o.gpsVel.Sub(g.prevGPSVel).Scale(1 / g.hop)
		alpha := g.hop / g.cfg.BiasTauSeconds
		g.audioBias = g.audioBias.Add(o.audioNED.Sub(gpsAccel).Sub(g.audioBias).Scale(alpha))
		g.imuBias = g.imuBias.Add(o.imuNED.Sub(gpsAccel).Sub(g.imuBias).Scale(alpha))
	}
	if err := g.est.Step(o.audioNED.Sub(g.audioBias), o.imuNED.Sub(g.imuBias), g.hop); err != nil {
		g.err = err
		return
	}
	fused := g.est.Velocity()
	var running float64
	if i >= g.alignN {
		// The running mean skips a non-finite error, so the peak and the
		// live error stay finite; the alarm does not skip it. An error
		// that overflows comes from a reported velocity no flight has.
		e := fused.Sub(o.gpsVel).Norm()
		running = g.monitor.Add(e)
		if running > g.verdict.PeakError {
			g.verdict.PeakError = running
		}
		if (running > g.threshold || !finite(e)) && !g.verdict.Attacked {
			g.verdict.Attacked = true
			g.verdict.DetectionTime = o.t
		}
	}
	if g.trace != nil {
		g.pos = g.pos.Add(fused.Scale(g.hop))
		g.trace.Time = append(g.trace.Time, o.t)
		g.trace.FusedVel = append(g.trace.FusedVel, fused)
		g.trace.GPSVel = append(g.trace.GPSVel, o.gpsVel)
		g.trace.FusedPos = append(g.trace.FusedPos, g.pos)
		g.trace.RunningError = append(g.trace.RunningError, running)
	}
	g.prevGPSVel = o.gpsVel
	g.idx++
}

// restartSegment closes the segment interrupted by a window hole and
// re-enters alignment for the next contiguous run, re-anchoring the KF
// at the new segment's first GPS reading. The running-mean monitor
// restarts because its calibration only covers contiguous windows.
func (g *gpsMonitor) restartSegment(o gpsObs) {
	if !g.aligned {
		g.finishAlign()
	}
	if g.err != nil {
		return
	}
	gpsSegments.Inc()
	g.aligned = false
	g.alignN = 0
	g.idx = 0
	g.audioBias = mathx.Vec3{}
	g.imuBias = mathx.Vec3{}
	g.prevGPSVel = mathx.Vec3{}
	g.monitor.Reset()
	if g.est != nil {
		g.est, g.err = kalman.NewVelocityEstimator(g.cfg.Velocity, o.gpsVel)
	}
}

// Current returns the verdict so far, without closing a pending
// alignment phase, and the current running-mean velocity error.
func (g *gpsMonitor) Current() (GPSVerdict, float64) { return g.verdict, g.monitor.Mean() }

// Verdict closes a sequence that ended inside its alignment phase (the
// KF still steps, with monitoring off) and returns the accumulated
// verdict and any KF error.
func (g *gpsMonitor) Verdict() (GPSVerdict, error) {
	if !g.aligned {
		g.finishAlign()
	}
	return g.verdict, g.err
}
