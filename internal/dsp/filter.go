package dsp

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadFilterConfig is the sentinel wrapped by every filter-design
// error, mirroring ErrBadSTFTConfig so callers can branch with
// errors.Is instead of string matching.
var ErrBadFilterConfig = errors.New("dsp: invalid filter configuration")

// Biquad is a second-order IIR filter section in direct form II transposed.
// SoundBoost uses a low-pass biquad to discard everything above the
// aerodynamic frequency group (6 kHz in the paper), which also removes any
// ultrasonic IMU-injection energy by construction.
type Biquad struct {
	b0, b1, b2 float64
	a1, a2     float64
	z1, z2     float64
}

// NewLowPass designs a Butterworth-style low-pass biquad with the given
// cutoff (Hz) at sampleRate (Hz). Cutoff must lie in (0, sampleRate/2).
func NewLowPass(cutoff, sampleRate float64) (*Biquad, error) {
	if err := checkFilterRate(sampleRate); err != nil {
		return nil, fmt.Errorf("%w: low-pass: %v", ErrBadFilterConfig, err)
	}
	if !isFinite(cutoff) || cutoff <= 0 || cutoff >= sampleRate/2 {
		return nil, fmt.Errorf("%w: low-pass cutoff %g Hz outside (0, %g)", ErrBadFilterConfig, cutoff, sampleRate/2)
	}
	w0 := 2 * math.Pi * cutoff / sampleRate
	q := math.Sqrt2 / 2
	alpha := math.Sin(w0) / (2 * q)
	cosw := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 - cosw) / 2 / a0,
		b1: (1 - cosw) / a0,
		b2: (1 - cosw) / 2 / a0,
		a1: -2 * cosw / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

// NewHighPass designs a Butterworth-style high-pass biquad.
func NewHighPass(cutoff, sampleRate float64) (*Biquad, error) {
	if err := checkFilterRate(sampleRate); err != nil {
		return nil, fmt.Errorf("%w: high-pass: %v", ErrBadFilterConfig, err)
	}
	if !isFinite(cutoff) || cutoff <= 0 || cutoff >= sampleRate/2 {
		return nil, fmt.Errorf("%w: high-pass cutoff %g Hz outside (0, %g)", ErrBadFilterConfig, cutoff, sampleRate/2)
	}
	w0 := 2 * math.Pi * cutoff / sampleRate
	q := math.Sqrt2 / 2
	alpha := math.Sin(w0) / (2 * q)
	cosw := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 + cosw) / 2 / a0,
		b1: -(1 + cosw) / a0,
		b2: (1 + cosw) / 2 / a0,
		a1: -2 * cosw / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

// NewBandPass designs a constant-peak band-pass biquad centered at center Hz
// with the given quality factor q.
func NewBandPass(center, q, sampleRate float64) (*Biquad, error) {
	if err := checkFilterRate(sampleRate); err != nil {
		return nil, fmt.Errorf("%w: band-pass: %v", ErrBadFilterConfig, err)
	}
	if !isFinite(center) || center <= 0 || center >= sampleRate/2 {
		return nil, fmt.Errorf("%w: band-pass center %g Hz outside (0, %g)", ErrBadFilterConfig, center, sampleRate/2)
	}
	if !isFinite(q) || q <= 0 {
		return nil, fmt.Errorf("%w: band-pass q %g must be a positive finite number", ErrBadFilterConfig, q)
	}
	w0 := 2 * math.Pi * center / sampleRate
	alpha := math.Sin(w0) / (2 * q)
	cosw := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: alpha / a0,
		b1: 0,
		b2: -alpha / a0,
		a1: -2 * cosw / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

// checkFilterRate rejects non-finite and non-positive sample rates.
// NaN in particular would sail through the range comparisons (every NaN
// comparison is false) and poison the biquad coefficients.
func checkFilterRate(sampleRate float64) error {
	if !isFinite(sampleRate) || sampleRate <= 0 {
		return fmt.Errorf("sample rate %g must be a positive finite number", sampleRate)
	}
	return nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Process filters one sample, advancing internal state.
func (f *Biquad) Process(x float64) float64 {
	y := f.b0*x + f.z1
	f.z1 = f.b1*x - f.a1*y + f.z2
	f.z2 = f.b2*x - f.a2*y
	return y
}

// ProcessAll filters a whole signal into a new slice. State and
// coefficients live in locals for the loop; each sample evaluates
// Process's expressions, so the output is bitwise identical to calling
// Process sample by sample.
func (f *Biquad) ProcessAll(x []float64) []float64 {
	out := make([]float64, len(x))
	b0, b1, b2, a1, a2 := f.b0, f.b1, f.b2, f.a1, f.a2
	z1, z2 := f.z1, f.z2
	for i, v := range x {
		y := b0*v + z1
		z1 = b1*v - a1*y + z2
		z2 = b2*v - a2*y
		out[i] = y
	}
	f.z1, f.z2 = z1, z2
	return out
}

// Reset clears the filter state.
func (f *Biquad) Reset() { f.z1, f.z2 = 0, 0 }

// Biquad4 runs one biquad design over four independent channels — the
// microphone array's four — in one interleaved loop. A single biquad is
// a serial dependency chain (each output feeds the next sample's
// state); four chains stepped side by side overlap in the CPU
// pipeline. Each lane evaluates Process's expressions on its own
// state, so lane c is bitwise identical to a scalar Biquad fed channel
// c, and a NaN or Inf in one lane never reaches another.
type Biquad4 struct {
	b0, b1, b2 float64
	a1, a2     float64
	z1, z2     [4]float64
}

// Lanes4 returns a four-lane filter with f's coefficients and cleared
// state.
func (f *Biquad) Lanes4() *Biquad4 {
	return &Biquad4{b0: f.b0, b1: f.b1, b2: f.b2, a1: f.a1, a2: f.a2}
}

// Process filters one sample per lane, advancing each lane's state.
func (f *Biquad4) Process(x [4]float64) [4]float64 {
	var y [4]float64
	for c, v := range x {
		y[c] = f.b0*v + f.z1[c]
		f.z1[c] = f.b1*v - f.a1*y[c] + f.z2[c]
		f.z2[c] = f.b2*v - f.a2*y[c]
	}
	return y
}

// ProcessAll filters four equal-length signals into new slices (one
// allocation backs all four).
func (f *Biquad4) ProcessAll(x [4][]float64) [4][]float64 {
	n := len(x[0])
	for _, ch := range x[1:] {
		if len(ch) != n {
			panic("dsp: Biquad4 lanes differ in length")
		}
	}
	buf := make([]float64, 4*n)
	out := [4][]float64{buf[:n:n], buf[n : 2*n : 2*n], buf[2*n : 3*n : 3*n], buf[3*n:]}
	b0, b1, b2, a1, a2 := f.b0, f.b1, f.b2, f.a1, f.a2
	z10, z11, z12, z13 := f.z1[0], f.z1[1], f.z1[2], f.z1[3]
	z20, z21, z22, z23 := f.z2[0], f.z2[1], f.z2[2], f.z2[3]
	x1, x2, x3 := x[1][:n], x[2][:n], x[3][:n]
	o0, o1, o2, o3 := out[0][:n], out[1][:n], out[2][:n], out[3][:n]
	for i, v0 := range x[0] {
		v1, v2, v3 := x1[i], x2[i], x3[i]
		y0 := b0*v0 + z10
		y1 := b0*v1 + z11
		y2 := b0*v2 + z12
		y3 := b0*v3 + z13
		z10 = b1*v0 - a1*y0 + z20
		z11 = b1*v1 - a1*y1 + z21
		z12 = b1*v2 - a1*y2 + z22
		z13 = b1*v3 - a1*y3 + z23
		z20 = b2*v0 - a2*y0
		z21 = b2*v1 - a2*y1
		z22 = b2*v2 - a2*y2
		z23 = b2*v3 - a2*y3
		o0[i], o1[i], o2[i], o3[i] = y0, y1, y2, y3
	}
	f.z1 = [4]float64{z10, z11, z12, z13}
	f.z2 = [4]float64{z20, z21, z22, z23}
	return out
}

// FilterChain applies filters in sequence.
type FilterChain []*Biquad

// Process runs one sample through every stage.
func (c FilterChain) Process(x float64) float64 {
	for _, f := range c {
		x = f.Process(x)
	}
	return x
}

// ProcessAll filters a whole signal through every stage into a new slice.
func (c FilterChain) ProcessAll(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = c.Process(v)
	}
	return out
}

// Reset clears all stages.
func (c FilterChain) Reset() {
	for _, f := range c {
		f.Reset()
	}
}

// RMS returns the root-mean-square amplitude of x (0 for empty input).
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range x {
		sum += v * v
	}
	return math.Sqrt(sum / float64(len(x)))
}
