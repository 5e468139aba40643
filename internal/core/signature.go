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
	"soundboost/internal/parallel"
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
	// Precision selects the hot-path arithmetic. The zero value is the
	// bitwise-pinned Float64 default; Float32 opts into the
	// single-precision fast path (see Precision). omitempty keeps
	// models saved before the field existed byte-identical on re-save.
	Precision Precision `json:",omitempty"`
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
	return c.Precision.validate()
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

	// f32sub memoizes per-sub-frame float32 features (log band energies
	// plus log RMS) keyed by exact integer sample offsets. Consecutive
	// signature windows overlap (hop < window), so their sub-frame grids
	// land on identical sample ranges; recomputing those FFTs yields
	// bit-identical values, making the cache a pure dedupe. Float32-mode
	// only — the float64 path stays byte-for-byte untouched.
	f32mu  sync.Mutex
	f32sub map[subFrameKey][]float64
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
	e := &Extractor{cfg: cfg, rate: rec.SampleRate}
	span := extractFilterTimer.Start()
	defer span.Stop()
	// Each channel filters independently; fan the four mics out across the
	// worker pool. Filter state is per-channel, so results are identical to
	// the serial loop.
	channels, err := parallel.MapErr(0, len(rec.Channels), func(m int) ([]float64, error) {
		ch := rec.Channels[m]
		if cfg.LowPassHz > 0 && cfg.LowPassHz < rec.SampleRate/2 {
			lp, err := dsp.NewLowPass(cfg.LowPassHz, rec.SampleRate)
			if err != nil {
				return nil, fmt.Errorf("soundboost: low-pass: %w", err)
			}
			return lp.ProcessAll(ch), nil
		}
		return append([]float64(nil), ch...), nil
	})
	if err != nil {
		return nil, err
	}
	copy(e.filtered[:], channels)
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
	var out []float64
	if e.cfg.Precision == Float32 {
		// The extractor-backed fast path memoizes sub-frames across
		// overlapping windows; the stateless kernel below recomputes them.
		out = e.acousticWindow32Cached(start, total)
	} else {
		var chans [acoustics.NumMics][]float64
		for m := range chans {
			chans[m] = e.filtered[m][start : start+total]
		}
		out = e.cfg.AcousticWindow(chans, e.rate)
	}
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
	total := len(chans[0])
	if total <= 0 {
		return nil
	}
	sub := total / c.SubFrames
	if sub < 8 {
		return nil
	}
	if c.Precision == Float32 {
		return c.acousticWindow32(chans, rate, sub)
	}
	nfft := dsp.NextPow2(sub)
	perFrame := len(c.Bands) + 1
	// Acoustic part only; attitude features (when configured) are appended
	// by the window builders, which have telemetry access.
	out := make([]float64, c.AcousticDim())
	plan := dsp.PlanFFT(nfft)
	buf := dsp.AcquireComplex(nfft)
	defer dsp.ReleaseComplex(buf)
	win := dsp.CachedHann(sub)
	for m := 0; m < acoustics.NumMics; m++ {
		ch := chans[m]
		for s := 0; s < c.SubFrames; s++ {
			off := s * sub
			for i := range buf {
				buf[i] = 0
			}
			for i := 0; i < sub; i++ {
				buf[i] = complex(ch[off+i]*win[i], 0)
			}
			plan.Forward(buf)
			mags := dsp.Magnitudes(buf[:nfft/2+1])
			base := (m*c.SubFrames + s) * perFrame
			var rms float64
			for i := 0; i < sub; i++ {
				v := ch[off+i]
				rms += v * v
			}
			rms = math.Sqrt(rms / float64(sub))
			for b, band := range c.Bands {
				// Normalise band energy by sqrt(nfft) so augmented
				// (longer) windows remain comparable to the base window.
				energy := dsp.BandEnergy(mags, nfft, rate, band) / math.Sqrt(float64(nfft))
				out[base+b] = math.Log1p(energy)
			}
			out[base+len(c.Bands)] = math.Log1p(rms)
		}
	}
	return out
}

// acousticWindow32 is the float32 fast path of AcousticWindow: one
// fused pass per sub-frame converts, Hann-windows and accumulates the
// RMS of the samples into a pooled float32 buffer, a packed real-input
// FFT produces the half spectrum at half the butterfly work, and band
// powers sum squared bins directly off the complex64 spectrum — no
// magnitude slice, one square root per band instead of one per bin.
// Feature layout and normalisation match the float64 kernel exactly;
// values differ only within the documented Float32Tolerance.
func (c SignatureConfig) acousticWindow32(chans [acoustics.NumMics][]float64, rate float64, sub int) []float64 {
	nfft := dsp.NextPow2(sub)
	perFrame := len(c.Bands) + 1
	out := make([]float64, c.AcousticDim())
	plan := dsp.PlanFFT32(nfft)
	re := dsp.AcquireFloats32(nfft)
	defer dsp.ReleaseFloats32(re)
	spec := dsp.AcquireComplex64(plan.SpectrumLen())
	defer dsp.ReleaseComplex64(spec)
	win := dsp.CachedHann32(sub)
	invSqrtN := 1 / math.Sqrt(float64(nfft))
	for m := 0; m < acoustics.NumMics; m++ {
		ch := chans[m]
		for s := 0; s < c.SubFrames; s++ {
			off := s * sub
			base := (m*c.SubFrames + s) * perFrame
			spec = c.subFrame32(ch[off:off+sub], nfft, rate, plan, re, spec, win, invSqrtN, out[base:base+perFrame])
		}
	}
	return out
}

// subFrame32 computes one sub-frame's features — log band energies
// followed by log RMS — into dst, using the caller's pooled transform
// buffers. re[len(ch):] must already be zero (the arena hands buffers
// out zeroed and ForwardReal leaves its input untouched). Returns the
// (possibly regrown) spectrum slice.
func (c SignatureConfig) subFrame32(ch []float64, nfft int, rate float64, plan *dsp.Plan32, re []float32, spec []complex64, win []float32, invSqrtN float64, dst []float64) []complex64 {
	sub := len(ch)
	var sumSq float32
	for i, v32 := range ch {
		v := float32(v32)
		sumSq += v * v
		re[i] = v * win[i]
	}
	spec = plan.ForwardReal(re, spec)
	for b, band := range c.Bands {
		energy := dsp.BandPower32(spec, nfft, rate, band) * invSqrtN
		dst[b] = math.Log1p(energy)
	}
	dst[len(c.Bands)] = math.Log1p(math.Sqrt(float64(sumSq) / float64(sub)))
	return spec
}

// acousticWindow32Cached is the float32 kernel fed through the
// extractor's sub-frame memo: every (mic, start sample, sub length)
// grid cell is transformed at most once per recording. Because hop <
// window, consecutive windows share sub-frames at identical sample
// offsets (at the default 0.25 s hop, 2 of each window's 4); the dedupe
// returns bit-identical values, so cached and recomputed signatures are
// indistinguishable. Two goroutines racing on the same missing key both
// compute the same values; the second store is a harmless overwrite.
func (e *Extractor) acousticWindow32Cached(start, total int) []float64 {
	c := e.cfg
	sub := total / c.SubFrames
	if sub < 8 {
		return nil
	}
	nfft := dsp.NextPow2(sub)
	perFrame := len(c.Bands) + 1
	out := make([]float64, c.AcousticDim())
	plan := dsp.PlanFFT32(nfft)
	re := dsp.AcquireFloats32(nfft)
	defer dsp.ReleaseFloats32(re)
	spec := dsp.AcquireComplex64(plan.SpectrumLen())
	defer dsp.ReleaseComplex64(spec)
	win := dsp.CachedHann32(sub)
	invSqrtN := 1 / math.Sqrt(float64(nfft))
	for m := 0; m < acoustics.NumMics; m++ {
		ch := e.filtered[m]
		for s := 0; s < c.SubFrames; s++ {
			off := start + s*sub
			base := (m*c.SubFrames + s) * perFrame
			key := subFrameKey{mic: m, start: off, sub: sub}
			e.f32mu.Lock()
			cached, ok := e.f32sub[key]
			e.f32mu.Unlock()
			if !ok {
				cached = make([]float64, perFrame)
				spec = c.subFrame32(ch[off:off+sub], nfft, e.rate, plan, re, spec, win, invSqrtN, cached)
				e.f32mu.Lock()
				if e.f32sub == nil {
					e.f32sub = make(map[subFrameKey][]float64)
				}
				e.f32sub[key] = cached
				e.f32mu.Unlock()
			}
			copy(out[base:base+perFrame], cached)
		}
	}
	return out
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
