// Package dsp implements the signal-processing substrate SoundBoost needs:
// a power-of-two real-input FFT, analysis windows, short-time Fourier
// transforms, frequency-band energy extraction (the paper's
// blade-passing / mechanical / aerodynamic groups), biquad filters, and
// the Goertzel single-bin DFT. Transforms run over cached
// per-size plans (PlanFFT) on pooled scratch; the helpers below work on
// their spectra.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

// Magnitudes returns |X[k]| for each bin.
func Magnitudes(x Spectrum) []float64 {
	out := make([]float64, len(x.Re))
	for i, re := range x.Re {
		out[i] = math.Hypot(re, x.Im[i])
	}
	return out
}

// PowerSpectrum returns |X[k]|^2 for each bin.
func PowerSpectrum(x Spectrum) []float64 {
	out := make([]float64, len(x.Re))
	for i, re := range x.Re {
		im := x.Im[i]
		out[i] = re*re + im*im
	}
	return out
}

// BinFrequency returns the center frequency in Hz of FFT bin k for a
// transform of length n over samples taken at sampleRate Hz.
func BinFrequency(k, n int, sampleRate float64) float64 {
	return float64(k) * sampleRate / float64(n)
}

// FrequencyBin returns the FFT bin index whose center frequency is closest
// to freq, clamped to the valid half-spectrum range [0, n/2].
func FrequencyBin(freq float64, n int, sampleRate float64) int {
	k := int(math.Round(freq * float64(n) / sampleRate))
	if k < 0 {
		k = 0
	}
	if k > n/2 {
		k = n / 2
	}
	return k
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// Goertzel evaluates the DFT magnitude of x at a single target frequency
// using the generalized Goertzel recurrence (Sysel & Rajmic 2012). Unlike
// the classic integer-bin formulation, the final complex correction term
// is exact for *fractional* bins too, so the magnitude matches a direct
// DFT at any target frequency — the common case when tracking the
// blade-passing line, which rarely sits on a bin center. It is cheaper
// than a full FFT when only a handful of bins are needed.
func Goertzel(x []float64, targetFreq, sampleRate float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	k := targetFreq * float64(n) / sampleRate
	omega := 2 * math.Pi * k / float64(n)
	coeff := 2 * math.Cos(omega)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	// y[N-1] = s[N-1] - e^{-i*omega} s[N-2] equals e^{i*omega(N-1)} X(omega)
	// for any omega; the unit phasor drops out of the magnitude. The classic
	// power formula s1^2 + s2^2 - coeff*s1*s2 is only its square when omega
	// corresponds to an integer bin.
	re := s1 - s2*math.Cos(omega)
	im := s2 * math.Sin(omega)
	return math.Hypot(re, im)
}

// Validate reports an error when a transform length would be pathological.
func Validate(n int) error {
	if n < 0 {
		return fmt.Errorf("dsp: negative transform length %d", n)
	}
	return nil
}
