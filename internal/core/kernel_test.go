package soundboost

import (
	"math"
	"testing"

	"soundboost/internal/acoustics"
	"soundboost/internal/dsp"
	"soundboost/internal/kalman"
	"soundboost/internal/obs"
	"soundboost/internal/triage"
)

// naiveMagnitudes is the O(n^2) reference spectrum: the magnitudes
// |X[k]|, k <= nfft/2, of x zero-padded to nfft, by direct summation
// over an exact-angle table (phase index k*t mod nfft).
func naiveMagnitudes(x []float64, nfft int) []float64 {
	cos, sin := make([]float64, nfft), make([]float64, nfft)
	for i := range cos {
		sin[i], cos[i] = math.Sincos(-2 * math.Pi * float64(i) / float64(nfft))
	}
	mags := make([]float64, nfft/2+1)
	for k := range mags {
		var re, im float64
		for t, v := range x {
			j := (k * t) % nfft
			re += v * cos[j]
			im += v * sin[j]
		}
		mags[k] = math.Hypot(re, im)
	}
	return mags
}

// naiveSubFrame is the reference signature sub-frame: Hann-window,
// per-bin magnitudes, then BandEnergy normalised by sqrt(nfft), plus
// the log RMS — the float64 algorithm before the kernel moved to the
// packed real FFT.
func naiveSubFrame(cfg SignatureConfig, ch []float64, rate float64) []float64 {
	sub := len(ch)
	nfft := dsp.NextPow2(sub)
	win := dsp.Hann(sub)
	x := make([]float64, sub)
	var rms float64
	for i, v := range ch {
		x[i] = v * win[i]
		rms += v * v
	}
	mags := naiveMagnitudes(x, nfft)
	out := make([]float64, 0, len(cfg.Bands)+1)
	for _, band := range cfg.Bands {
		out = append(out, math.Log1p(dsp.BandEnergy(mags, nfft, rate, band)/math.Sqrt(float64(nfft))))
	}
	return append(out, math.Log1p(math.Sqrt(rms/float64(sub))))
}

// TestSignatureKernelMatchesNaiveDFT pins the float64 signature kernel
// (packed real FFT, fused band power, sub-frame memo) to the naive
// reference within 1e-12 absolute on every feature of every fixture
// window.
func TestSignatureKernelMatchesNaiveDFT(t *testing.T) {
	fx := getFixture(t)
	cfg := fx.model.Config().Signature
	perFrame := len(cfg.Bands) + 1
	windows := 0
	var maxErr float64
	for _, f := range fx.benign() {
		ex, err := NewExtractor(f.Audio, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[subFrameKey][]float64{}
		for _, t0 := range ex.WindowStarts(cfg.WindowSeconds) {
			got := ex.Features(t0, cfg.WindowSeconds)
			if got == nil {
				continue
			}
			windows++
			start := int(t0 * ex.rate)
			sub := int(cfg.WindowSeconds*ex.rate) / cfg.SubFrames
			for m := 0; m < acoustics.NumMics; m++ {
				for s := 0; s < cfg.SubFrames; s++ {
					key := subFrameKey{mic: m, start: start + s*sub, sub: sub}
					want, ok := ref[key]
					if !ok {
						want = naiveSubFrame(cfg, ex.filtered[m][key.start:key.start+sub], ex.rate)
						ref[key] = want
					}
					base := (m*cfg.SubFrames + s) * perFrame
					for i, w := range want {
						d := math.Abs(got[base+i] - w)
						maxErr = math.Max(maxErr, d)
						if d > 1e-12 {
							t.Fatalf("%s t0=%g mic %d sub-frame %d feature %d: kernel %.17g, naive DFT %.17g", f.Name, t0, m, s, i, got[base+i], w)
						}
					}
				}
			}
		}
	}
	if windows == 0 {
		t.Fatal("no windows compared")
	}
	t.Logf("compared %d windows, max |kernel - naive| %.3g", windows, maxErr)
}

// TestTriageFeaturesMatchNaiveDFT checks the float64 triage spectral
// features (band energies, centroid, rolloff, flatness, SNR) against
// the same naive reference on every fixture window. Flatness and SNR
// divide near-zero or nearly-cancelling powers, which amplifies the
// transform's rounding, so they get wider bounds.
func TestTriageFeaturesMatchNaiveDFT(t *testing.T) {
	fx := getFixture(t)
	cfg := fx.model.Config().Signature
	fc := triage.FeatureConfig{Bands: cfg.Bands, RolloffFraction: 0.95}
	nb := len(cfg.Bands)
	// Measured maxima over the 244 fixture windows: band energies
	// 1.8e-15, centroid 6.1e-16, rolloff 0 (exact), flatness 2.5e-13,
	// SNR 8.3e-11 dB. Bounds keep about an order of magnitude of headroom.
	bound := func(i int) float64 {
		switch {
		case i < nb+2: // band energies, centroid, rolloff
			return 1e-14
		case i == nb+2: // flatness
			return 3e-12
		default: // SNR (dB)
			return 1e-9
		}
	}
	imu := []triage.IMUPoint{{}}
	windows := 0
	maxErr := make([]float64, nb+6)
	for _, f := range fx.benign() {
		ex, err := NewExtractor(f.Audio, cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := int(cfg.WindowSeconds * ex.rate)
		for _, t0 := range ex.WindowStarts(cfg.WindowSeconds) {
			start := int(t0 * ex.rate)
			audio := ex.filtered[0][start : start+total]
			got := fc.Features(audio, ex.rate, imu, nil)
			if got == nil {
				t.Fatalf("%s t0=%g: no triage features", f.Name, t0)
			}
			want := naiveTriageSpectral(fc, audio, ex.rate)
			windows++
			for i, w := range want {
				if i == nb+3 || i == nb+4 { // ZCR, logRMS: time domain
					continue
				}
				d := math.Abs(got[i] - w)
				maxErr[i] = math.Max(maxErr[i], d)
				if d > bound(i) {
					t.Fatalf("%s t0=%g feature %d: kernel %.17g, naive DFT %.17g (|d| %.3g > %g)", f.Name, t0, i, got[i], w, d, bound(i))
				}
			}
		}
	}
	t.Logf("compared %d windows, max |kernel - naive| per feature %.3g", windows, maxErr)
}

// naiveTriageSpectral recomputes the acoustic part of the triage vector
// ([bands..., centroid, rolloff, flatness, ZCR, logRMS, SNR]) from
// naive per-bin magnitudes, as the float64 kernel did before the packed
// real FFT. ZCR and logRMS are left zero.
func naiveTriageSpectral(fc triage.FeatureConfig, audio []float64, rate float64) []float64 {
	n := len(audio)
	nfft := dsp.NextPow2(n)
	win := dsp.Hann(n)
	x := make([]float64, n)
	for i, v := range audio {
		x[i] = v * win[i]
	}
	mags := naiveMagnitudes(x, nfft)
	var out []float64
	inBand := 0.0
	for _, band := range fc.Bands {
		e := dsp.BandEnergy(mags, nfft, rate, band) / math.Sqrt(float64(nfft))
		out = append(out, math.Log1p(e))
		inBand += e * e
	}
	nyquist := rate / 2
	var totalPow, weighted, logSum float64
	for k := 1; k < len(mags); k++ {
		p := mags[k] * mags[k]
		totalPow += p
		weighted += p * dsp.BinFrequency(k, nfft, rate)
		logSum += math.Log(p + 1e-20)
	}
	target := fc.RolloffFraction * totalPow
	rolloff := nyquist
	cum := 0.0
	for k := 1; k < len(mags); k++ {
		cum += mags[k] * mags[k]
		if cum >= target {
			rolloff = dsp.BinFrequency(k, nfft, rate)
			break
		}
	}
	bins := float64(len(mags) - 1)
	flatness := math.Exp(logSum/bins) / (totalPow / bins)
	outBand := math.Max(totalPow/float64(nfft)-inBand, 1e-20)
	snr := 10 * math.Log10((inBand+1e-20)/outBand)
	return append(out, weighted/totalPow/nyquist, rolloff/nyquist, flatness, 0, 0, snr)
}

// TestPredictInferCallsBothPrecisions requires one Predict to count the
// network's nn.infer.calls once, and an analyzer asked for Float32 to
// run that same inference.
func TestPredictInferCallsBothPrecisions(t *testing.T) {
	fx := getFixture(t)
	an, err := NewAnalyzer(fx.model, fx.calib)
	if err != nil {
		t.Fatal(err)
	}
	an32, err := an.WithPrecision(Float32)
	if err != nil {
		t.Fatal(err)
	}
	withObs(t)
	calls := obs.Default.Counter("nn.infer.calls")
	x := make([]float64, fx.model.Config().Signature.FeatureDim())
	count := func(infer func()) int64 {
		before := calls.Value()
		infer()
		return calls.Value() - before
	}
	seq := count(func() { fx.model.net.Infer(make([]float64, len(x))) })
	n64 := count(func() { an.Model.Predict(x) })
	n32 := count(func() { an32.Model.Predict(x) })
	if seq <= 0 || n64 != seq || n32 != seq {
		t.Fatalf("network Infer counted %d nn.infer.calls, Predict %d at float64 and %d at float32; want the same positive count", seq, n64, n32)
	}
}

// TestNewGPSDetectorsOnePass pins the multi-config calibration: each
// detector matches a standalone NewGPSDetector of its config, and the
// benign flights are observed (filtered) once in total.
func TestNewGPSDetectorsOnePass(t *testing.T) {
	fx := getFixture(t)
	cfgs := []GPSDetectorConfig{
		DefaultGPSDetectorConfig(kalman.ModeAudioOnly),
		DefaultGPSDetectorConfig(kalman.ModeAudioIMU),
	}
	withObs(t)
	filter := obs.Default.Timer("core.extract.filter")
	before := filter.Count()
	dets, err := NewGPSDetectors(fx.model, fx.calib, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	if got := filter.Count() - before; got != int64(len(fx.calib)) {
		t.Errorf("calibrating %d configs filtered %d recordings, want one pass over %d flights", len(cfgs), got, len(fx.calib))
	}
	for i, cfg := range cfgs {
		one, err := NewGPSDetector(fx.model, fx.calib, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if dets[i].Threshold() != one.Threshold() || dets[i].Config() != one.Config() {
			t.Errorf("config %d: threshold %g, standalone %g", i, dets[i].Threshold(), one.Threshold())
		}
	}
}
