package dsp

import (
	"fmt"
	"math"
)

// CrossCorrelate returns the circular cross-correlation of a and b via the
// frequency domain: r[τ] = Σ a[t] b[t+τ]. Both inputs are zero-padded to
// the next power of two at least len(a)+len(b)-1, so linear lags up to
// ±(len-1) are unaliased. Both signals are real, so only the
// non-redundant half spectra are transformed and multiplied.
func CrossCorrelate(a, b []float64) []float64 {
	return correlate(a, b, false)
}

// GCCPHAT computes the Generalized Cross-Correlation with Phase Transform
// between two signals — the standard TDoA estimator for microphone arrays
// (the paper's §II-D locates each propeller by TDoA). The PHAT weighting
// whitens the spectrum so the correlation peak sharpens to the true delay
// even for broadband rotor noise.
func GCCPHAT(a, b []float64) []float64 {
	return correlate(a, b, true)
}

// correlate computes conj(A)·B in the frequency domain, optionally
// PHAT-weighted to unit magnitude, and transforms back.
func correlate(a, b []float64, phat bool) []float64 {
	n := NextPow2(len(a) + len(b) - 1)
	plan := PlanFFT(n)
	fa := Acquire(n)
	defer Release(fa)
	fb := Acquire(n)
	defer Release(fb)
	copy(fa, a)
	copy(fb, b)
	A := plan.ForwardReal(fa, AcquireSpectrum(plan.SpectrumLen()))
	defer ReleaseSpectrum(A)
	B := plan.ForwardReal(fb, AcquireSpectrum(plan.SpectrumLen()))
	defer ReleaseSpectrum(B)
	for i := range A.Re {
		ar, ai, br, bi := A.Re[i], A.Im[i], B.Re[i], B.Im[i]
		cr, ci := ar*br+ai*bi, ar*bi-ai*br
		if phat {
			if mag := math.Hypot(cr, ci); mag > 1e-12 {
				cr, ci = cr/mag, ci/mag
			}
		}
		A.Re[i], A.Im[i] = cr, ci
	}
	return plan.InverseReal(A, make([]float64, n))
}

// PeakLag finds the lag (in samples, possibly negative) of the maximum of
// a circular correlation sequence, searching only |lag| <= maxLag.
// Positive lag means b is delayed relative to a.
func PeakLag(corr []float64, maxLag int) (lag int, value float64) {
	n := len(corr)
	if n == 0 {
		return 0, 0
	}
	if maxLag <= 0 || maxLag >= n/2 {
		maxLag = n/2 - 1
	}
	best := corr[0]
	bestLag := 0
	for l := 1; l <= maxLag; l++ {
		if corr[l] > best {
			best, bestLag = corr[l], l
		}
		if corr[n-l] > best {
			best, bestLag = corr[n-l], -l
		}
	}
	return bestLag, best
}

// PeakLagInterp refines PeakLag to sub-sample resolution by fitting a
// parabola through the peak and its neighbours — necessary for small
// microphone arrays whose full delay range spans only a few samples.
func PeakLagInterp(corr []float64, maxLag int) float64 {
	n := len(corr)
	if n < 3 {
		return 0
	}
	lag, _ := PeakLag(corr, maxLag)
	at := func(l int) float64 { return corr[((l%n)+n)%n] }
	ym, y0, yp := at(lag-1), at(lag), at(lag+1)
	den := ym - 2*y0 + yp
	if den == 0 {
		return float64(lag)
	}
	delta := 0.5 * (ym - yp) / den
	if delta > 0.5 {
		delta = 0.5
	}
	if delta < -0.5 {
		delta = -0.5
	}
	return float64(lag) + delta
}

// EstimateTDoA returns the time-difference-of-arrival of b relative to a
// in seconds, via GCC-PHAT with sub-sample peak interpolation, limited to
// |tdoa| <= maxSeconds.
func EstimateTDoA(a, b []float64, sampleRate, maxSeconds float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, fmt.Errorf("dsp: empty TDoA inputs")
	}
	if sampleRate <= 0 {
		return 0, fmt.Errorf("dsp: sample rate %g must be positive", sampleRate)
	}
	corr := GCCPHAT(a, b)
	maxLag := int(maxSeconds * sampleRate)
	return PeakLagInterp(corr, maxLag) / sampleRate, nil
}
