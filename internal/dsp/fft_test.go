package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n^2) reference implementation for correctness checks.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

// realSpectrum returns the n/2+1 non-redundant bins of a real signal.
func realSpectrum(x []float64) Spectrum {
	return PlanFFT(len(x)).ForwardReal(x, Spectrum{})
}

// toComplex joins a split half spectrum into complex128 bins.
func toComplex(s Spectrum) []complex128 {
	out := make([]complex128, len(s.Re))
	for i := range out {
		out[i] = complex(s.Re[i], s.Im[i])
	}
	return out
}

func complexSliceApproxEq(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// asComplex lifts a real signal to complex128 for the naive reference.
func asComplex(x []float64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 128, 256} {
		x := randSignal(n, int64(n)+3)
		got := toComplex(realSpectrum(x))
		want := naiveDFT(asComplex(x))[:n/2+1]
		if !complexSliceApproxEq(got, want, 1e-7*float64(n)) {
			t.Errorf("n=%d: FFT disagrees with naive DFT", n)
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	p := PlanFFT(0)
	if got := p.ForwardReal(nil, Spectrum{}); len(got.Re) != 0 || len(got.Im) != 0 {
		t.Errorf("ForwardReal(nil) = %v, want empty", got)
	}
	if got := p.InverseReal(Spectrum{}, nil); len(got) != 0 {
		t.Errorf("InverseReal(empty) = %v, want empty", got)
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	for _, n := range []int{1, 2, 8, 16, 64, 1024} {
		x := randSignal(n, int64(n)+4)
		got := PlanFFT(n).InverseReal(realSpectrum(x), nil)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8*float64(n) {
				t.Fatalf("n=%d: inverse(forward(x))[%d] = %g, want %g", n, i, got[i], x[i])
			}
		}
	}
}

// Property: Parseval's theorem — sum x^2 == (1/N) sum |X|^2, where the
// half spectrum counts every bin but DC and Nyquist twice.
func TestFFTParseval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 << (uint(rng.Intn(4)))
		x := randSignal(n, seed)
		pow := PowerSpectrum(realSpectrum(x))
		var timeE, freqE float64
		for _, v := range x {
			timeE += v * v
		}
		for k, p := range pow {
			if k != 0 && k != n/2 {
				p *= 2
			}
			freqE += p
		}
		freqE /= float64(n)
		return math.Abs(timeE-freqE) < 1e-6*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: FFT is linear.
func TestFFTLinearity(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		n := 64
		a := randSignal(n, int64(2*trial))
		b := randSignal(n, int64(2*trial+1))
		sum := make([]float64, n)
		for i := range sum {
			sum[i] = 2*a[i] + 3*b[i]
		}
		fa, fb, fsum := toComplex(realSpectrum(a)), toComplex(realSpectrum(b)), toComplex(realSpectrum(sum))
		for i := range fsum {
			want := 2*fa[i] + 3*fb[i]
			if cmplx.Abs(fsum[i]-want) > 1e-8 {
				t.Fatalf("linearity violated at bin %d", i)
			}
		}
	}
}

func TestFFTRealSineLocatesPeak(t *testing.T) {
	const (
		sampleRate = 8000.0
		freq       = 440.0
		n          = 4096
	)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / sampleRate)
	}
	mags := Magnitudes(realSpectrum(x))
	peak := 0
	for k := 1; k < n/2; k++ {
		if mags[k] > mags[peak] {
			peak = k
		}
	}
	got := BinFrequency(peak, n, sampleRate)
	if math.Abs(got-freq) > sampleRate/float64(n)+1 {
		t.Errorf("peak at %g Hz, want ~%g Hz", got, freq)
	}
}

func TestFrequencyBinClamping(t *testing.T) {
	tests := []struct {
		freq float64
		want int
	}{
		{-100, 0},
		{0, 0},
		{1000, 512},   // 1000 * 8192 / 16000 = 512
		{8000, 4096},  // Nyquist
		{20000, 4096}, // beyond Nyquist clamps
	}
	for _, tt := range tests {
		if got := FrequencyBin(tt.freq, 8192, 16000); got != tt.want {
			t.Errorf("FrequencyBin(%g) = %d, want %d", tt.freq, got, tt.want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024},
	}
	for _, tt := range tests {
		if got := NextPow2(tt.in); got != tt.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	const (
		sampleRate = 8000.0
		n          = 1024
	)
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*200*float64(i)/sampleRate) + 0.1*rng.NormFloat64()
	}
	// Bin 25.6 -> use an exact bin frequency for the comparison.
	k := 26
	freq := BinFrequency(k, n, sampleRate)
	want := Magnitudes(realSpectrum(x))[k]
	got := Goertzel(x, freq, sampleRate)
	if math.Abs(got-want) > 1e-6*(1+want) {
		t.Errorf("Goertzel = %v, FFT bin = %v", got, want)
	}
}

func TestGoertzelEmpty(t *testing.T) {
	if got := Goertzel(nil, 100, 8000); got != 0 {
		t.Errorf("Goertzel(nil) = %v, want 0", got)
	}
}

func TestPowerSpectrum(t *testing.T) {
	x := Spectrum{Re: []float64{3, 0, 1}, Im: []float64{4, 0, 0}}
	got := PowerSpectrum(x)
	want := []float64{25, 0, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("PowerSpectrum[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(-1); err == nil {
		t.Error("Validate(-1) = nil, want error")
	}
	if err := Validate(16); err != nil {
		t.Errorf("Validate(16) = %v, want nil", err)
	}
}

func BenchmarkGoertzel4096(b *testing.B) {
	x := make([]float64, 4096)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Goertzel(x, 200, 8000)
	}
}
