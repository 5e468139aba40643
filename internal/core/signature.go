// Package soundboost implements the paper's primary contribution: the
// SoundBoost post-incident RCA framework. It turns microphone-array
// recordings into acoustic signatures (§III-A), learns the signature →
// acceleration mapping (§III-B), and runs the two-stage root cause
// analysis — IMU attack detection by Kolmogorov-Smirnov testing of
// prediction residuals (§III-C1) and GPS spoofing detection by Kalman
// velocity fusion with a running-mean error monitor (§III-C2).
package soundboost

import (
	"fmt"
	"math"
	"sync"

	"soundboost/internal/acoustics"
	"soundboost/internal/dsp"
)

// SignatureConfig controls acoustic signature generation (paper §III-A).
type SignatureConfig struct {
	// WindowSeconds is the signature window (the paper's tuned value:
	// 0.5 s; swept in §IV-A).
	WindowSeconds float64
	// HopSeconds is the stride between consecutive windows.
	HopSeconds float64
	// SubFrames splits each window temporally so the signature captures
	// actuation dynamics, not just average loudness.
	SubFrames int
	// LowPassHz removes everything above the aerodynamic group (6 kHz in
	// the paper) — including any ultrasonic IMU-injection energy.
	LowPassHz float64
	// Bands are the analysis bands (blade-passing / mechanical /
	// aerodynamic split).
	Bands []dsp.Band
	// AttitudeFeatures appends the window-mean roll and pitch (from the
	// autopilot's attitude estimate, trusted per the threat model and
	// already required for the NED transform) to each signature. Tilt
	// determines steady-state aerodynamic drag, the one body-frame force
	// component rotor sound alone cannot resolve.
	AttitudeFeatures bool
}

// DefaultSignatureConfig derives the analysis layout from the synthesiser
// configuration so reduced-rate test setups get coherent bands.
func DefaultSignatureConfig(synth acoustics.SynthConfig) SignatureConfig {
	bladeCenter := float64(synth.Blades) * synth.HoverSpeed / (2 * math.Pi)
	lp := synth.AeroFreq * 1.12
	nyquist := synth.SampleRate / 2
	if lp >= nyquist {
		lp = nyquist * 0.95
	}
	return SignatureConfig{
		WindowSeconds:    0.5,
		HopSeconds:       0.25,
		SubFrames:        4,
		AttitudeFeatures: true,
		LowPassHz:        lp,
		Bands: []dsp.Band{
			{Name: "blade", Low: bladeCenter * 0.5, High: bladeCenter * 2.2},
			{Name: "mech", Low: synth.MechFreq * 0.72, High: synth.MechFreq * 1.28},
			{Name: "aero-lo", Low: synth.AeroFreq * 0.82, High: synth.AeroFreq},
			{Name: "aero-hi", Low: synth.AeroFreq, High: synth.AeroFreq * 1.12},
		},
	}
}

// Validate reports configuration errors.
func (c SignatureConfig) Validate() error {
	switch {
	case c.WindowSeconds <= 0:
		return fmt.Errorf("soundboost: window %g s must be positive", c.WindowSeconds)
	case c.HopSeconds <= 0:
		return fmt.Errorf("soundboost: hop %g s must be positive", c.HopSeconds)
	case c.HopSeconds > c.WindowSeconds:
		return fmt.Errorf("soundboost: hop %g s exceeds window %g s (windows would skip audio)", c.HopSeconds, c.WindowSeconds)
	case c.SubFrames < 1:
		return fmt.Errorf("soundboost: sub-frames %d must be >= 1", c.SubFrames)
	case len(c.Bands) == 0:
		return fmt.Errorf("soundboost: no analysis bands")
	}
	for _, b := range c.Bands {
		if b.Low < 0 {
			return fmt.Errorf("soundboost: band %q has negative low edge %g Hz", b.Name, b.Low)
		}
		if b.High <= b.Low {
			return fmt.Errorf("soundboost: band %q is empty or inverted (%g..%g Hz)", b.Name, b.Low, b.High)
		}
	}
	return nil
}

// ValidateForRate validates the config against a concrete sample rate:
// beyond Validate, it rejects bands that lie entirely at or above the
// Nyquist frequency, where no spectral content can exist. A band whose
// upper edge merely crosses Nyquist is allowed — BandEnergy clamps it to
// the spectrum.
func (c SignatureConfig) ValidateForRate(sampleRate float64) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if sampleRate <= 0 {
		return fmt.Errorf("soundboost: sample rate %g Hz must be positive", sampleRate)
	}
	nyquist := sampleRate / 2
	for _, b := range c.Bands {
		if b.Low >= nyquist {
			return fmt.Errorf("soundboost: band %q (%g..%g Hz) lies entirely above Nyquist %g Hz", b.Name, b.Low, b.High, nyquist)
		}
	}
	return nil
}

// FeatureDim returns the signature vector length: per mic, per sub-frame,
// every band energy plus a broadband RMS term, plus the attitude features
// when enabled.
func (c SignatureConfig) FeatureDim() int {
	n := acoustics.NumMics * c.SubFrames * (len(c.Bands) + 1)
	if c.AttitudeFeatures {
		n += 2
	}
	return n
}

// AcousticDim returns the acoustic-only part of the feature vector.
func (c SignatureConfig) AcousticDim() int {
	return acoustics.NumMics * c.SubFrames * (len(c.Bands) + 1)
}

// BandFeatureIndices returns the feature-vector indices occupied by the
// named band across all mics and sub-frames — used by the counterfactual
// frequency-importance analysis (§IV-A).
func (c SignatureConfig) BandFeatureIndices(name string) []int {
	perFrame := len(c.Bands) + 1
	var out []int
	for b, band := range c.Bands {
		if band.Name != name {
			continue
		}
		for m := 0; m < acoustics.NumMics; m++ {
			for s := 0; s < c.SubFrames; s++ {
				out = append(out, (m*c.SubFrames+s)*perFrame+b)
			}
		}
	}
	return out
}

// Extractor computes acoustic signatures from one recording. It low-pass
// filters each channel once at construction, then serves windows.
type Extractor struct {
	cfg      SignatureConfig
	rate     float64
	filtered [acoustics.NumMics][]float64

	// memo holds per-sub-frame features (log band energies plus log RMS)
	// keyed by exact integer sample offsets. Consecutive signature
	// windows overlap (hop < window), so their sub-frame grids land on
	// identical sample ranges; recomputing those FFTs yields
	// bit-identical values, making the memo a pure dedupe.
	memo subFrameMemo
}

// subFrameMemo is an Extractor's sub-frame cache. Two goroutines racing
// on the same missing key both compute the same values; the second
// store is a harmless overwrite.
type subFrameMemo struct {
	mu sync.Mutex
	m  map[subFrameKey][]float64
}

// subFrameKey identifies one cached sub-frame: mic index, absolute
// start sample, and sub-frame length in samples (augmented/stretched
// windows use a different length and therefore a different key).
type subFrameKey struct {
	mic, start, sub int
}

// NewExtractor prepares signature extraction for a recording.
func NewExtractor(rec *acoustics.Recording, cfg SignatureConfig) (*Extractor, error) {
	if rec == nil || rec.Samples() == 0 {
		return nil, fmt.Errorf("soundboost: empty recording")
	}
	if err := cfg.ValidateForRate(rec.SampleRate); err != nil {
		return nil, err
	}
	for m, ch := range rec.Channels {
		if len(ch) != rec.Samples() {
			return nil, fmt.Errorf("soundboost: channel %d has %d samples, channel 0 has %d", m, len(ch), rec.Samples())
		}
	}
	e := &Extractor{cfg: cfg, rate: rec.SampleRate}
	span := extractFilterTimer.Start()
	defer span.Stop()
	// The four mics filter in one interleaved four-lane loop; each lane
	// is bitwise identical to a scalar filter over its channel.
	if cfg.LowPassHz > 0 && cfg.LowPassHz < rec.SampleRate/2 {
		lp, err := dsp.NewLowPass(cfg.LowPassHz, rec.SampleRate)
		if err != nil {
			return nil, fmt.Errorf("soundboost: low-pass: %w", err)
		}
		e.filtered = lp.Lanes4().ProcessAll(rec.Channels)
		return e, nil
	}
	for m, ch := range rec.Channels {
		e.filtered[m] = append([]float64(nil), ch...)
	}
	return e, nil
}

// Config returns the extractor's signature configuration.
func (e *Extractor) Config() SignatureConfig { return e.cfg }

// Duration returns the usable recording length in seconds.
func (e *Extractor) Duration() float64 {
	return float64(len(e.filtered[0])) / e.rate
}

// Features computes the signature for the window starting at t0 (seconds)
// spanning windowSeconds. Passing a window larger than cfg.WindowSeconds
// with the same sub-frame count implements the paper's time-shift
// augmentation (a stretched window simulates headwind-lengthened
// actuation). Returns nil when the window falls outside the recording.
func (e *Extractor) Features(t0, windowSeconds float64) []float64 {
	span := windowTimer.Start()
	defer span.Stop()
	start := int(t0 * e.rate)
	total := int(windowSeconds * e.rate)
	if start < 0 || total <= 0 || start+total > len(e.filtered[0]) {
		windowsRejected.Inc()
		return nil
	}
	out := e.cfg.acousticWindow(e.filtered, start, total, e.rate, &e.memo)
	if out == nil {
		windowsRejected.Inc()
	}
	return out
}

// AcousticWindow computes the acoustic part of the signature directly from
// per-mic low-pass-filtered sample windows (all the same length). It is
// the shared kernel of the batch Extractor and the online streaming
// windower: both paths must produce bit-identical features so that
// streaming verdicts are equivalent to post hoc Analyze. Returns nil when
// the window is too short for the configured sub-frame count.
func (c SignatureConfig) AcousticWindow(chans [acoustics.NumMics][]float64, rate float64) []float64 {
	return c.acousticWindow(chans, 0, len(chans[0]), rate, nil)
}

// acousticWindow is the signature kernel over samples
// [start, start+total) of chans, through memo when non-nil. Per
// sub-frame, one fused pass Hann-windows and accumulates the RMS of the
// samples into a pooled buffer, a packed real-input FFT
// produces the half spectrum, and band powers sum squared bins directly
// off it — no magnitude slice, one square root per band. Band energies
// are normalised by sqrt(nfft) so augmented (longer) windows remain
// comparable to the base window. Sub-frames already in memo (keyed by
// absolute sample offset) are copied instead of recomputed.
func (c SignatureConfig) acousticWindow(chans [acoustics.NumMics][]float64, start, total int, rate float64, memo *subFrameMemo) []float64 {
	if total <= 0 {
		return nil
	}
	sub := total / c.SubFrames
	if sub < 8 {
		return nil
	}
	nfft := dsp.NextPow2(sub)
	perFrame := len(c.Bands) + 1
	// Acoustic part only; attitude features (when configured) are appended
	// by the window builders, which have telemetry access.
	out := make([]float64, c.AcousticDim())
	plan := dsp.PlanFFT(nfft)
	// re[sub:] stays zero: the arena hands buffers out zeroed and
	// ForwardReal leaves its input untouched.
	re := dsp.Acquire(nfft)
	defer dsp.Release(re)
	spec := dsp.AcquireSpectrum(plan.SpectrumLen())
	defer dsp.ReleaseSpectrum(spec)
	win := dsp.CachedHann(sub)
	invSqrtN := 1 / math.Sqrt(float64(nfft))
	for m := 0; m < acoustics.NumMics; m++ {
		for s := 0; s < c.SubFrames; s++ {
			off := start + s*sub
			base := (m*c.SubFrames + s) * perFrame
			dst := out[base : base+perFrame]
			key := subFrameKey{mic: m, start: off, sub: sub}
			if memo.load(key, dst) {
				continue
			}
			var sumSq float64
			for i, v := range chans[m][off : off+sub] {
				sumSq += v * v
				re[i] = v * win[i]
			}
			spec = plan.ForwardReal(re, spec)
			for b, band := range c.Bands {
				dst[b] = math.Log1p(dsp.BandPower(spec, nfft, rate, band) * invSqrtN)
			}
			dst[len(c.Bands)] = math.Log1p(math.Sqrt(sumSq / float64(sub)))
			memo.store(key, dst)
		}
	}
	return out
}

// load copies the cached features of key into dst and reports whether
// they were present. A nil memo never hits.
func (mm *subFrameMemo) load(key subFrameKey, dst []float64) bool {
	if mm == nil {
		return false
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	cached, ok := mm.m[key]
	copy(dst, cached)
	return ok
}

// store caches a copy of the features of key. A nil memo drops them.
func (mm *subFrameMemo) store(key subFrameKey, feats []float64) {
	if mm == nil {
		return
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.m == nil {
		mm.m = make(map[subFrameKey][]float64)
	}
	mm.m[key] = append([]float64(nil), feats...)
}

// WindowStarts enumerates the start times of all complete signature
// windows of the given size with the configured hop. Each start is
// computed as i*hop from an integer counter rather than by repeated
// addition, so long recordings do not accumulate float rounding drift
// (repeated `t += hop` loses windows and shifts starts after thousands
// of hops).
func (e *Extractor) WindowStarts(windowSeconds float64) []float64 {
	var out []float64
	dur := e.Duration()
	for i := 0; ; i++ {
		t := float64(i) * e.cfg.HopSeconds
		if t+windowSeconds > dur {
			break
		}
		out = append(out, t)
	}
	return out
}
