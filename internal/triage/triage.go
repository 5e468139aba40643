// Package triage is SoundBoost's screening tier: a cheap per-window
// feature extractor feeding a K-nearest-neighbour classifier that lets
// confidently-benign windows skip the expensive signature → NN → KS/KF
// pipeline. The design follows the AALIS acoustic triage classifier
// (spectral band energies, centroid, rolloff, flatness, ZCR and an SNR
// estimate, with adaptive K and SNR-adaptive confidence thresholds),
// extended with four cheap telemetry cross-checks — the acoustic channel
// alone cannot separate benign from attacked flights because the threat
// model corrupts only logged telemetry, never the microphones.
//
// The policy is deliberately one-directional: the fast path can only
// ever conclude "benign". Any doubt — anomalous neighbours beyond the
// calibrated tolerance, a window off the calibrated benign manifold,
// low SNR, missing telemetry — escalates to the full pipeline. The zero
// verdict-flip guarantee holds on the corpus the tier is verified over,
// not statistically on unseen flights (see DESIGN.md "Triage tier
// contract").
package triage

import (
	"fmt"
	"math"
	"sort"

	"soundboost/internal/dsp"
	"soundboost/internal/mathx"
	"soundboost/internal/stats"
)

// IMUPoint is one logged IMU row. It is the one IMU row type of the
// repository: the core's flight split, the stream engine's buffers
// (stream.IMUSample) and the triage features all hold it, so a window's
// rows pass between them without a copy.
type IMUPoint struct {
	Time  float64    // flight timestamp (s)
	Accel mathx.Vec3 // accelerometer specific force (body frame)
	Gyro  mathx.Vec3 // gyroscope rate (body frame)
	Att   mathx.Quat // autopilot attitude estimate (trusted per threat model)
}

// GPSPoint is one GPS fix (NED), shared like IMUPoint (stream.GPSSample
// is the same type). Rows arrive at the IMU rate with the latest fix
// repeated, identically on the batch and streaming paths, so features
// derived from consecutive rows are path-independent.
type GPSPoint struct {
	Time float64    // flight timestamp (s)
	Pos  mathx.Vec3 // reported NED position
	Vel  mathx.Vec3 // reported NED velocity
}

// FeatureConfig controls the per-window triage feature vector.
type FeatureConfig struct {
	// Bands are the analysis bands (normally the signature bands).
	Bands []dsp.Band
	// RolloffFraction is the spectral-rolloff energy fraction
	// (default 0.95).
	RolloffFraction float64
}

func (c FeatureConfig) withDefaults() FeatureConfig {
	if c.RolloffFraction <= 0 || c.RolloffFraction >= 1 {
		c.RolloffFraction = 0.95
	}
	return c
}

// Dim returns the feature-vector length: one energy per band plus six
// broadband acoustic features plus four telemetry cross-checks.
func (c FeatureConfig) Dim() int { return len(c.Bands) + 10 }

// SNRIndex returns the index of the SNR feature (dB, unnormalised in
// the raw vector) — the classifier reads it back for its SNR-adaptive
// confidence threshold.
func (c FeatureConfig) SNRIndex() int { return len(c.Bands) + 5 }

// Features computes the triage vector for one window: audio is the
// low-pass-filtered primary-mic samples, imu and gps the telemetry rows
// with Time in the window. One FFT total — this is the entire acoustic
// cost of the fast path. Returns nil when the window is unusable
// (callers must escalate).
//
// Layout: [band energies..., centroid, rolloff, flatness, ZCR, logRMS,
// SNR dB, accel-magnitude std, gyro-magnitude mean, max consecutive GPS
// velocity jump, position/velocity consistency gap].
func (c FeatureConfig) Features(audio []float64, rate float64, imu []IMUPoint, gps []GPSPoint) []float64 {
	c = c.withDefaults()
	n := len(audio)
	if n < 16 || rate <= 0 || len(c.Bands) == 0 || len(imu) == 0 {
		return nil
	}
	out := make([]float64, 0, c.Dim())

	// --- One real-input FFT over the whole window.
	nfft := dsp.NextPow2(n)
	plan := dsp.PlanFFT(nfft)
	re := dsp.Acquire(nfft)
	defer dsp.Release(re)
	spec := dsp.AcquireSpectrum(plan.SpectrumLen())
	defer dsp.ReleaseSpectrum(spec)
	win := dsp.CachedHann(n)
	var rms float64
	zc := 0
	prev := audio[0]
	for i := 0; i < n; i++ {
		v := audio[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		// re[n:] stays zero: the arena hands buffers out zeroed.
		re[i] = v * win[i]
		rms += v * v
		if (v > 0 && prev < 0) || (v < 0 && prev > 0) {
			zc++
		}
		if v != 0 {
			prev = v
		}
	}
	rms = math.Sqrt(rms / float64(n))
	spec = plan.ForwardReal(re, spec)

	// Band energies, normalised like the signature kernel so magnitudes
	// stay comparable across window sizes.
	invSqrtN := 1 / math.Sqrt(float64(nfft))
	inBand := 0.0
	for _, band := range c.Bands {
		e := dsp.BandPower(spec, nfft, rate, band) * invSqrtN
		out = append(out, math.Log1p(e))
		inBand += e * e
	}

	// Broadband shape: centroid, rolloff, flatness over the power
	// spectrum (DC excluded), frequencies normalised by Nyquist.
	power := func(k int) float64 {
		zr, zi := spec.Re[k], spec.Im[k]
		return zr*zr + zi*zi
	}
	nyquist := rate / 2
	bins := len(spec.Re)
	var totalPow, weighted, logSum float64
	for k := 1; k < bins; k++ {
		p := power(k)
		totalPow += p
		weighted += p * dsp.BinFrequency(k, nfft, rate)
		logSum += math.Log(p + 1e-20)
	}
	if totalPow <= 0 {
		return nil
	}
	centroid := weighted / totalPow / nyquist
	target := c.RolloffFraction * totalPow
	rolloff := nyquist
	cum := 0.0
	for k := 1; k < bins; k++ {
		cum += power(k)
		if cum >= target {
			rolloff = dsp.BinFrequency(k, nfft, rate)
			break
		}
	}
	flatness := math.Exp(logSum/float64(bins-1)) / (totalPow / float64(bins-1))
	zcr := float64(zc) / float64(n)

	// SNR: energy inside the analysis bands against the out-of-band
	// floor. The attack-free synthesiser concentrates rotor energy in
	// the bands; a window whose floor swamps them is one the NN was not
	// trained for, so the classifier treats low SNR as doubt.
	outBand := totalPow/float64(nfft) - inBand
	if outBand < 1e-20 {
		outBand = 1e-20
	}
	snr := 10 * math.Log10((inBand+1e-20)/outBand)

	out = append(out, centroid, rolloff/nyquist, flatness, zcr, math.Log1p(rms), snr)
	out = appendTelemetryFeatures(out, imu, gps)

	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
	}
	return out
}

// appendTelemetryFeatures appends the four telemetry cross-checks — the
// features that can see attacks the microphones cannot (spoofed rows
// never touch the audio channel).
func appendTelemetryFeatures(out []float64, imu []IMUPoint, gps []GPSPoint) []float64 {
	var accMean, gyroMean float64
	accMags := make([]float64, len(imu))
	for i, p := range imu {
		accMags[i] = p.Accel.Norm()
		accMean += accMags[i]
		gyroMean += p.Gyro.Norm()
	}
	accMean /= float64(len(imu))
	gyroMean /= float64(len(imu))
	var accVar float64
	for _, m := range accMags {
		d := m - accMean
		accVar += d * d
	}
	accStd := math.Sqrt(accVar / float64(len(imu)))

	// GPS: the largest instantaneous velocity step between consecutive
	// rows (spoof onsets are discontinuous) and the gap between the
	// position-derived velocity and the reported mean velocity (static
	// spoofs freeze the position while the vehicle keeps moving).
	var velJump, posVelGap float64
	if len(gps) >= 2 {
		var velSum mathx.Vec3
		for i, p := range gps {
			velSum = velSum.Add(p.Vel)
			if i > 0 {
				if j := p.Vel.Sub(gps[i-1].Vel).Norm(); j > velJump {
					velJump = j
				}
			}
		}
		dt := gps[len(gps)-1].Time - gps[0].Time
		if dt > 1e-9 {
			derived := gps[len(gps)-1].Pos.Sub(gps[0].Pos).Scale(1 / dt)
			posVelGap = derived.Sub(velSum.Scale(1 / float64(len(gps)))).Norm()
		}
	}
	return append(out, accStd, gyroMean, velJump, posVelGap)
}

// Config tunes training and classification.
type Config struct {
	// Features is the extraction layout.
	Features FeatureConfig
	// MaxPrototypes caps the stored prototype set (default 256);
	// training subsamples each class deterministically.
	MaxPrototypes int
	// KMin and KMax clamp the adaptive neighbour count
	// k = round(sqrt(#prototypes)) (defaults 3 and 25).
	KMin, KMax int
	// BenignQuantile is the benign-distance quantile the radius
	// calibrates to (default 0.99).
	BenignQuantile float64
	// RadiusMargin scales the calibrated radius (default 1.25).
	RadiusMargin float64
	// StrictFactor shrinks the radius for low-SNR windows (default 0.5).
	StrictFactor float64
}

func (c Config) withDefaults() Config {
	c.Features = c.Features.withDefaults()
	if c.MaxPrototypes <= 0 {
		c.MaxPrototypes = 256
	}
	if c.KMin <= 0 {
		c.KMin = 3
	}
	if c.KMax <= 0 {
		c.KMax = 25
	}
	if c.KMax < c.KMin {
		c.KMax = c.KMin
	}
	if c.BenignQuantile <= 0 || c.BenignQuantile > 1 {
		c.BenignQuantile = 0.99
	}
	if c.RadiusMargin <= 0 {
		c.RadiusMargin = 1.25
	}
	if c.StrictFactor <= 0 || c.StrictFactor > 1 {
		c.StrictFactor = 0.5
	}
	return c
}

// Sample is one labelled training window.
type Sample struct {
	// Features is the raw (unnormalised) triage vector.
	Features []float64
	// Anomalous marks windows overlapping an attack signature.
	Anomalous bool
}

// Model is the trained KNN screener. It is immutable after training
// apart from Tighten, and safe for concurrent Classify calls.
type Model struct {
	cfg    Config
	norm   stats.ZScore
	protos [][]float64 // z-score normalised
	labels []int       // 0 benign, 1 anomalous
	k      int

	// voteLimit is the calibrated anomalous-neighbour tolerance: a
	// window escalates on votes strictly above it. Benign windows pick
	// up the odd stray anomalous neighbour (attack prototypes live on
	// the same manifold's edge); real attack windows draw several.
	voteLimit int

	// benignRadius is the calibrated distance bound for confident-benign
	// windows; snrFloorDB escalates outright below it, snrStrictDB
	// shrinks the radius by StrictFactor below it.
	benignRadius float64
	snrFloorDB   float64
	snrStrictDB  float64
}

// Config returns the training configuration (defaults resolved).
func (m *Model) Config() Config { return m.cfg }

// K returns the adaptive neighbour count.
func (m *Model) K() int { return m.k }

// Prototypes returns the stored prototype count.
func (m *Model) Prototypes() int { return len(m.protos) }

// BenignRadius returns the current confident-benign distance bound.
func (m *Model) BenignRadius() float64 { return m.benignRadius }

// VoteLimit returns the calibrated anomalous-neighbour tolerance.
func (m *Model) VoteLimit() int { return m.voteLimit }

// Train fits the screener from labelled windows. The prototype set is a
// deterministic stratified subsample, K adapts to its size, and the
// benign radius calibrates to the configured quantile of benign
// training distances. At least one benign sample is required; anomalous
// samples are optional (without them the model degenerates to a pure
// benign-manifold distance check).
func Train(samples []Sample, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	dim := cfg.Features.Dim()
	var benign, anom [][]float64
	for i, s := range samples {
		if len(s.Features) != dim {
			return nil, fmt.Errorf("triage: sample %d has %d features, want %d", i, len(s.Features), dim)
		}
		if s.Anomalous {
			anom = append(anom, s.Features)
		} else {
			benign = append(benign, s.Features)
		}
	}
	if len(benign) == 0 {
		return nil, fmt.Errorf("triage: no benign training windows")
	}

	m := &Model{cfg: cfg}
	xs := make([][]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.Features
	}
	m.norm = stats.FitZScore(xs)

	// Stratified deterministic subsample: class quotas proportional to
	// class sizes (each at least 1 when the class is non-empty), picked
	// by even stride so the same corpus always yields the same model.
	quotaB, quotaA := len(benign), len(anom)
	if total := quotaB + quotaA; total > cfg.MaxPrototypes {
		quotaB = cfg.MaxPrototypes * len(benign) / total
		if quotaB < 1 {
			quotaB = 1
		}
		quotaA = cfg.MaxPrototypes - quotaB
		if len(anom) == 0 {
			quotaA = 0
			quotaB = cfg.MaxPrototypes
		} else if quotaA < 1 {
			quotaA = 1
			quotaB = cfg.MaxPrototypes - 1
		}
	}
	for _, x := range stride(benign, quotaB) {
		m.protos = append(m.protos, m.norm.Apply(x))
		m.labels = append(m.labels, 0)
	}
	for _, x := range stride(anom, quotaA) {
		m.protos = append(m.protos, m.norm.Apply(x))
		m.labels = append(m.labels, 1)
	}

	k := int(math.Round(math.Sqrt(float64(len(m.protos)))))
	if k < cfg.KMin {
		k = cfg.KMin
	}
	if k > cfg.KMax {
		k = cfg.KMax
	}
	if k > len(m.protos) {
		k = len(m.protos)
	}
	m.k = k

	// Radius: the configured quantile of every benign sample's mean
	// distance to its k nearest benign prototypes, widened by the margin.
	dists := make([]float64, 0, len(benign))
	for _, x := range benign {
		dists = append(dists, m.meanBenignDistance(m.norm.Apply(x)))
	}
	sort.Float64s(dists)
	idx := int(cfg.BenignQuantile * float64(len(dists)-1))
	m.benignRadius = dists[idx] * cfg.RadiusMargin
	if m.benignRadius <= 0 {
		m.benignRadius = 1e-6
	}

	// Vote tolerance: anomalous prototypes sit on the edge of the same
	// manifold, so ordinary benign windows pick up the odd stray
	// anomalous neighbour while genuine attack windows draw several.
	// Calibrate the tolerance to the benign quantile of the training
	// windows' own vote counts, capped below k so a unanimously
	// anomalous neighbourhood always escalates.
	votes := make([]int, 0, len(benign))
	for _, x := range benign {
		_, v := m.neighbours(m.norm.Apply(x))
		votes = append(votes, v)
	}
	sort.Ints(votes)
	m.voteLimit = votes[int(cfg.BenignQuantile*float64(len(votes)-1))]
	if m.voteLimit >= m.k {
		m.voteLimit = m.k - 1
	}

	// SNR-adaptive thresholds from the benign SNR distribution: floor
	// well below anything seen in training, strict bound at the 5th
	// percentile.
	snrs := make([]float64, len(benign))
	si := cfg.Features.SNRIndex()
	for i, x := range benign {
		snrs[i] = x[si]
	}
	sort.Float64s(snrs)
	m.snrFloorDB = snrs[0] - 6
	m.snrStrictDB = snrs[int(0.05*float64(len(snrs)-1))]
	return m, nil
}

// stride picks quota elements from xs at even spacing (deterministic).
func stride(xs [][]float64, quota int) [][]float64 {
	if quota >= len(xs) {
		return xs
	}
	if quota <= 0 {
		return nil
	}
	out := make([][]float64, 0, quota)
	for i := 0; i < quota; i++ {
		out = append(out, xs[i*len(xs)/quota])
	}
	return out
}

// meanBenignDistance is the mean Euclidean distance from z to its k
// nearest benign prototypes (+Inf without benign prototypes), selected
// as neighbours selects them.
func (m *Model) meanBenignDistance(z []float64) float64 {
	var stack [maxStackK]neighbour
	near := m.nearest(z, true, stack[:0])
	if len(near) == 0 {
		return math.Inf(1)
	}
	sum := 0.0
	for _, nb := range near {
		sum += nb.dist
	}
	return sum / float64(len(near))
}

// neighbour is one selected prototype: its distance and index.
type neighbour struct {
	dist float64
	idx  int
}

// maxStackK is the neighbour count whose selection buffer lives on the
// stack; larger k (beyond the default KMax) allocates it.
const maxStackK = 32

// nearest selects the k nearest prototypes of z — among the benign ones
// only when benignOnly — into buf, in ascending distance. It keeps a
// sorted insertion buffer of at most k entries, so one pass over the
// prototypes costs no sort and no per-distance allocation. Equal
// distances keep the lower prototype index, and NaN distances order
// first, as sort.Float64s orders them; the selection is therefore a
// deterministic function of the model and z. Fewer than k candidates
// yield them all.
func (m *Model) nearest(z []float64, benignOnly bool, buf []neighbour) []neighbour {
	k := m.k
	if cap(buf) < k {
		buf = make([]neighbour, 0, k)
	}
	buf = buf[:0]
	for i, p := range m.protos {
		if benignOnly && m.labels[i] != 0 {
			continue
		}
		d := euclid(z, p)
		if len(buf) == k {
			if !distLess(d, buf[k-1].dist) {
				continue
			}
			buf = buf[:k-1]
		}
		j := len(buf)
		buf = append(buf, neighbour{})
		for ; j > 0 && distLess(d, buf[j-1].dist); j-- {
			buf[j] = buf[j-1]
		}
		buf[j] = neighbour{dist: d, idx: i}
	}
	return buf
}

// distLess is sort.Float64s's order: ascending, NaN first.
func distLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

func euclid(a, b []float64) float64 {
	var s float64
	for j := range a {
		d := a[j] - b[j]
		s += d * d
	}
	return math.Sqrt(s)
}

// Decision is the outcome of screening one window.
type Decision struct {
	// Benign is true only for confident-benign windows; everything else
	// must escalate to the full pipeline.
	Benign bool
	// Distance is the mean distance to the k nearest neighbours.
	Distance float64
	// AnomVotes counts anomalous prototypes among the k nearest.
	AnomVotes int
	// Reason explains a non-benign decision ("" when benign).
	Reason string
}

// neighbours returns the mean distance to and the anomalous count among
// the k nearest prototypes of a normalised vector, selected by nearest:
// ties at the k-th distance go to the lower prototype index. Distances
// are summed in ascending order.
func (m *Model) neighbours(z []float64) (meanDist float64, votes int) {
	var stack [maxStackK]neighbour
	near := m.nearest(z, false, stack[:0])
	var sum float64
	for _, nb := range near {
		sum += nb.dist
		if m.labels[nb.idx] == 1 {
			votes++
		}
	}
	return sum / float64(len(near)), votes
}

// Classify screens one raw feature vector. The window is
// confident-benign only when every check passes: SNR above the floor,
// anomalous neighbours within the calibrated vote tolerance, and mean
// neighbour distance within the (SNR-adjusted) benign radius. A nil or
// wrong-length vector escalates.
func (m *Model) Classify(feat []float64) Decision {
	span := classifyTimer.Start()
	defer span.Stop()
	if len(feat) != len(m.norm.Mean) {
		return escalated(Decision{Reason: "unusable window"})
	}
	snr := feat[m.cfg.Features.SNRIndex()]
	if snr < m.snrFloorDB {
		return escalated(Decision{Reason: "snr below floor"})
	}
	z := m.norm.Apply(feat)

	dist, votes := m.neighbours(z)
	d := Decision{Distance: dist, AnomVotes: votes}
	if votes > m.voteLimit {
		d.Reason = "anomalous neighbours"
		return escalated(d)
	}
	radius := m.benignRadius
	if snr < m.snrStrictDB {
		radius *= m.cfg.StrictFactor
	}
	if d.Distance > radius {
		d.Reason = "off benign manifold"
		return escalated(d)
	}
	d.Benign = true
	recordScreened()
	return d
}

func escalated(d Decision) Decision {
	recordEscalated()
	return d
}

// Tighten lowers the benign radius to below (no-op when the current
// radius is already lower). Tightening is one-directional — it can only
// turn fast-path windows into escalations, never the reverse — so it
// preserves the zero-flip guarantee while enforcing it on a corpus.
func (m *Model) Tighten(below float64) {
	if below < m.benignRadius {
		m.benignRadius = below
	}
}
