package soundboost

import (
	"fmt"
	"math"
	"sort"

	"soundboost/internal/dataset"
	"soundboost/internal/stats"
)

// IMUDetectorConfig tunes the IMU-attack RCA stage (§III-C1).
type IMUDetectorConfig struct {
	// StatMargin scales the calibrated benign KS-statistic threshold
	// (>= 1). Residuals within one window share the window's prediction
	// error, so the detector pools residuals over a sliding period of
	// windows and calibrates the KS statistic empirically on benign
	// periods rather than relying on the i.i.d. p-value.
	StatMargin float64
	// TrimSigma removes benign-statistic outliers before taking the max.
	TrimSigma float64
	// PeriodWindows is how many consecutive signature windows pool into
	// one KS detection period (window-level prediction offsets average
	// out across a period; attack shifts persist).
	PeriodWindows int
	// DetectPeriods is how many consecutive periods must exceed the
	// threshold before an alarm — suppresses isolated turbulence.
	DetectPeriods int
	// MinResiduals is the minimum residual count for a valid KS test.
	MinResiduals int
	// Stream selects the analysed IMU: 0 is the primary, k > 0 is
	// redundant unit k-1. Vehicles with multiple IMUs run one detector per
	// stream with separately learned thresholds (paper §V-B), so a
	// resonant injection tuned to one sensor model is attributed to that
	// unit alone.
	Stream int
}

// DefaultIMUDetectorConfig returns the tuned configuration.
func DefaultIMUDetectorConfig() IMUDetectorConfig {
	return IMUDetectorConfig{StatMargin: 1.1, TrimSigma: 4, PeriodWindows: 8, DetectPeriods: 2, MinResiduals: 20}
}

// IMUDetector flags IMU biasing attacks by comparing audio acceleration
// predictions against logged IMU measurements: benign residuals follow the
// normal distribution fitted at calibration; attack residuals deviate, and
// the per-window Kolmogorov-Smirnov statistic crosses the calibrated
// benign ceiling.
type IMUDetector struct {
	cfg    IMUDetectorConfig
	model  *AcousticModel
	benign stats.Normal
	// statThreshold is the alarm level on the per-period KS statistic.
	statThreshold float64
	// stdThreshold is the alarm level on the per-period residual standard
	// deviation. DoS-style injections widen the residual distribution
	// without shifting it; the KS statistic alone is weak against pure
	// variance inflation at realistic benign jitter, so both statistics
	// are calibrated (Fig. 6's signature is exactly sigma inflation).
	stdThreshold float64
}

// NewIMUDetector calibrates the benign residual distribution and the
// benign per-period KS-statistic ceiling from benign flights. The benign
// set should span the mission diversity expected at analysis time.
func NewIMUDetector(model *AcousticModel, benignFlights []*dataset.Flight, cfg IMUDetectorConfig) (*IMUDetector, error) {
	obs, err := observeFlights(model, benignFlights)
	if err != nil {
		return nil, err
	}
	return calibrateIMU(model, obs, cfg)
}

// calibrateIMU fits the detector from benign flights' window
// observations. The per-period statistics come from the detection
// recursion itself, run with its alarms disabled.
func calibrateIMU(model *AcousticModel, benignObs []*flightObs, cfg IMUDetectorConfig) (*IMUDetector, error) {
	if cfg.StatMargin < 1 {
		return nil, fmt.Errorf("soundboost: KS stat margin %g must be >= 1", cfg.StatMargin)
	}
	if cfg.DetectPeriods < 1 {
		cfg.DetectPeriods = 1
	}
	span := imuCalibTimer.Start()
	defer span.Stop()
	var pool []float64
	for _, fo := range benignObs {
		for _, w := range fo.windows {
			pool = append(pool, w.residuals(cfg.Stream)...)
		}
	}
	benign, err := stats.FitNormal(pool)
	if err != nil {
		return nil, fmt.Errorf("soundboost: fit benign residuals: %w", err)
	}
	d := &IMUDetector{cfg: cfg, model: model, benign: benign, statThreshold: math.Inf(1), stdThreshold: math.Inf(1)}

	var ksStats, stds []float64
	for _, fo := range benignObs {
		m := d.newMonitor()
		m.onPeriod = func(stat, std float64) {
			ksStats = append(ksStats, stat)
			stds = append(stds, std)
		}
		m.addAll(fo.windows)
	}
	if len(ksStats) == 0 {
		return nil, fmt.Errorf("soundboost: no benign periods for KS calibration")
	}
	d.statThreshold = stats.Max(stats.TrimOutliers(ksStats, cfg.TrimSigma)) * cfg.StatMargin
	d.stdThreshold = stats.Max(stats.TrimOutliers(stds, cfg.TrimSigma)) * cfg.StatMargin
	return d, nil
}

// BenignDistribution returns the calibrated benign residual normal.
func (d *IMUDetector) BenignDistribution() stats.Normal { return d.benign }

// Config returns the detector's configuration (after calibration-time
// normalisation).
func (d *IMUDetector) Config() IMUDetectorConfig { return d.cfg }

// StatThreshold returns the calibrated per-period KS-statistic ceiling.
func (d *IMUDetector) StatThreshold() float64 { return d.statThreshold }

// StdThreshold returns the calibrated per-period residual-sigma ceiling.
func (d *IMUDetector) StdThreshold() float64 { return d.stdThreshold }

// IMUVerdict is the outcome of the IMU RCA stage on one flight.
type IMUVerdict struct {
	// Attacked reports whether an IMU attack was flagged.
	Attacked bool
	// DetectionTime is the flight time (s) of the first alarmed window
	// (valid when Attacked).
	DetectionTime float64
	// WindowsTested and WindowsRejected summarise the KS sweep.
	WindowsTested   int
	WindowsRejected int
	// AttackStd is the residual standard deviation over rejected windows
	// (Fig. 6's widened distribution), 0 when benign.
	AttackStd float64
}

// Detect runs the IMU RCA stage over a flight.
func (d *IMUDetector) Detect(f *dataset.Flight) (IMUVerdict, error) {
	v, _, err := d.detectFlight(f, nil, d.newMonitor())
	return v, err
}

// detectFlight runs the window pass over f (split as rows, or here if
// nil) and feeds stage 1 into m, both inside the IMU detect span, and
// returns the windows for Analyze to hand on to stage 2.
func (d *IMUDetector) detectFlight(f *dataset.Flight, rows *flightRows, m *imuMonitor) (IMUVerdict, *flightObs, error) {
	span := imuDetectTimer.Start()
	defer span.Stop()
	fo, err := observeFlight(d.model, f, rows)
	if err != nil {
		return IMUVerdict{}, nil, err
	}
	m.addAll(fo.windows)
	return m.Verdict(), fo, nil
}

// ResidualHistogram builds the Fig. 6 residual histogram (z-axis residuals
// of the primary IMU pooled over the whole flight).
func (d *IMUDetector) ResidualHistogram(f *dataset.Flight, lo, hi float64, bins int) (*stats.Histogram, error) {
	fo, err := observeFlight(d.model, f, nil)
	if err != nil {
		return nil, err
	}
	h := stats.NewHistogram(lo, hi, bins)
	for _, w := range fo.windows {
		for _, v := range w.resid {
			h.Add(v)
		}
	}
	return h, nil
}

// imuWindow is one window in a monitor's ring: its start time and
// per-IMU-sample prediction residuals, also kept sorted, so each window
// is sorted once however many periods pool it.
type imuWindow struct {
	start  float64
	vals   []float64
	sorted []float64
}

// maxRejectedVals bounds the residual pool retained for the AttackStd
// estimate on an endless attacked stream; past it the spread estimate
// freezes on the first samples rather than growing without bound.
const maxRejectedVals = 1 << 20

// imuMonitor is the IMU RCA stage as a window-by-window recursion, and
// its only implementation: Detect, calibration and Run (which Analyze
// and the stream engine drive) all feed it. It holds a ring of the last
// PeriodWindows residual sets and tests one pooled KS period per added
// window.
type imuMonitor struct {
	cfg     IMUDetectorConfig
	benign  stats.Normal
	statThr float64
	stdThr  float64
	winSec  float64
	// onPeriod, when set, receives every tested period's KS statistic
	// and residual sigma.
	onPeriod func(stat, std float64)

	ring        []imuWindow
	pool        []float64 // the period's residuals in window order
	merge       stats.RunMerger
	consecutive int
	verdict     IMUVerdict
	// rejectedVals pools the residuals of rejected periods (overlapping
	// periods contribute their shared windows again) for AttackStd.
	rejectedVals []float64
}

// newMonitor returns a fresh monitor at the detector's calibrated
// thresholds.
func (d *IMUDetector) newMonitor() *imuMonitor {
	cfg := d.cfg
	if cfg.PeriodWindows < 1 {
		cfg.PeriodWindows = 1
	}
	return &imuMonitor{
		cfg:     cfg,
		benign:  d.benign,
		statThr: d.statThreshold,
		stdThr:  d.stdThreshold,
		winSec:  d.model.cfg.Signature.WindowSeconds,
	}
}

// AddWindow feeds the residuals of one analysed window, in window order.
// A window without residuals is not fed at all: period pooling has no
// timebase, so the IMU stage needs no hole handling.
func (m *imuMonitor) AddWindow(start float64, vals []float64) {
	// The evicted window's sorted buffer takes the new window's values.
	var sorted []float64
	if len(m.ring) == m.cfg.PeriodWindows {
		sorted = m.ring[0].sorted[:0]
		m.ring = append(m.ring[:0], m.ring[1:]...)
	}
	sorted = append(sorted, vals...)
	sort.Float64s(sorted)
	m.ring = append(m.ring, imuWindow{start: start, vals: vals, sorted: sorted})
	if len(m.ring) < m.cfg.PeriodWindows {
		return
	}
	m.pool = m.pool[:0]
	for _, w := range m.ring {
		m.pool = append(m.pool, w.vals...)
	}
	pool := m.pool
	// A too-small or untestable pool emits no period and does not reset
	// the consecutive-rejection counter.
	if len(pool) < m.cfg.MinResiduals {
		return
	}
	// Merging the windows' sorted runs yields the pool in sorted order
	// without sorting it again; the KS statistic only reads that order.
	// The spread reads the pool in window order, as it always has.
	m.merge.Reset()
	for _, w := range m.ring {
		m.merge.Add(w.sorted)
	}
	res, err := stats.KSTestNormalSorted(m.merge.Merged(), m.benign)
	if err != nil {
		return
	}
	std := stats.StdDev(pool)
	if m.onPeriod != nil {
		m.onPeriod(res.Statistic, std)
	}
	m.verdict.WindowsTested++
	if res.Statistic > m.statThr || std > m.stdThr {
		m.verdict.WindowsRejected++
		m.consecutive++
		if len(m.rejectedVals) < maxRejectedVals {
			m.rejectedVals = append(m.rejectedVals, pool...)
		}
		if m.consecutive >= m.cfg.DetectPeriods && !m.verdict.Attacked {
			m.verdict.Attacked = true
			m.verdict.DetectionTime = start + m.winSec
		}
	} else {
		m.consecutive = 0
	}
}

// addWindow feeds a window's residuals against the configured IMU
// unit; a window without any is not fed.
func (m *imuMonitor) addWindow(w *window) {
	if vals := w.residuals(m.cfg.Stream); len(vals) > 0 {
		m.AddWindow(w.t0, vals)
	}
}

func (m *imuMonitor) addAll(ws []*window) {
	for _, w := range ws {
		m.addWindow(w)
	}
}

// Verdict returns the verdict over the windows fed so far.
func (m *imuMonitor) Verdict() IMUVerdict {
	v := m.verdict
	if v.Attacked && len(m.rejectedVals) > 1 {
		v.AttackStd = stats.StdDev(m.rejectedVals)
	}
	return v
}
