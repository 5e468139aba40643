package dsp

import (
	"errors"
	"math"
	"testing"
)

// gainAt measures the steady-state gain of filter f at the given frequency
// by running a long sine through it and comparing RMS after the transient.
func gainAt(t *testing.T, f *Biquad, freq, sampleRate float64) float64 {
	t.Helper()
	f.Reset()
	n := int(sampleRate) // one second
	x := sine(freq, sampleRate, n)
	y := f.ProcessAll(x)
	// Skip the first quarter to let transients settle.
	return RMS(y[n/4:]) / RMS(x[n/4:])
}

func TestLowPassGain(t *testing.T) {
	const sampleRate = 16000.0
	f, err := NewLowPass(6000, sampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if g := gainAt(t, f, 200, sampleRate); g < 0.95 {
		t.Errorf("passband gain at 200 Hz = %v, want ~1", g)
	}
	if g := gainAt(t, f, 7800, sampleRate); g > 0.5 {
		t.Errorf("stopband gain at 7800 Hz = %v, want attenuated", g)
	}
}

func TestHighPassGain(t *testing.T) {
	const sampleRate = 16000.0
	f, err := NewHighPass(1000, sampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if g := gainAt(t, f, 4000, sampleRate); g < 0.9 {
		t.Errorf("passband gain at 4 kHz = %v, want ~1", g)
	}
	if g := gainAt(t, f, 100, sampleRate); g > 0.1 {
		t.Errorf("stopband gain at 100 Hz = %v, want attenuated", g)
	}
}

func TestBandPassGain(t *testing.T) {
	const sampleRate = 16000.0
	f, err := NewBandPass(2500, 2, sampleRate)
	if err != nil {
		t.Fatal(err)
	}
	center := gainAt(t, f, 2500, sampleRate)
	low := gainAt(t, f, 200, sampleRate)
	high := gainAt(t, f, 7000, sampleRate)
	if center < 0.9 {
		t.Errorf("center gain = %v, want ~1", center)
	}
	if low > center/3 || high > center/3 {
		t.Errorf("out-of-band gains %v, %v not attenuated vs center %v", low, high, center)
	}
}

func TestFilterDesignErrors(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name string
		fn   func() error
	}{
		{"lowpass zero cutoff", func() error { _, err := NewLowPass(0, 8000); return err }},
		{"lowpass at nyquist", func() error { _, err := NewLowPass(4000, 8000); return err }},
		{"lowpass above nyquist", func() error { _, err := NewLowPass(5000, 8000); return err }},
		{"lowpass NaN cutoff", func() error { _, err := NewLowPass(nan, 8000); return err }},
		{"lowpass Inf cutoff", func() error { _, err := NewLowPass(inf, 8000); return err }},
		{"lowpass NaN rate", func() error { _, err := NewLowPass(1000, nan); return err }},
		{"lowpass zero rate", func() error { _, err := NewLowPass(1000, 0); return err }},
		{"highpass negative", func() error { _, err := NewHighPass(-10, 8000); return err }},
		{"highpass at nyquist", func() error { _, err := NewHighPass(4000, 8000); return err }},
		{"highpass NaN cutoff", func() error { _, err := NewHighPass(nan, 8000); return err }},
		{"highpass Inf rate", func() error { _, err := NewHighPass(1000, inf); return err }},
		{"bandpass zero q", func() error { _, err := NewBandPass(1000, 0, 8000); return err }},
		{"bandpass NaN q", func() error { _, err := NewBandPass(1000, nan, 8000); return err }},
		{"bandpass Inf q", func() error { _, err := NewBandPass(1000, inf, 8000); return err }},
		{"bandpass at nyquist", func() error { _, err := NewBandPass(4000, 1, 8000); return err }},
		{"bandpass above nyquist", func() error { _, err := NewBandPass(5000, 1, 8000); return err }},
		{"bandpass NaN center", func() error { _, err := NewBandPass(nan, 1, 8000); return err }},
		{"bandpass NaN rate", func() error { _, err := NewBandPass(1000, 1, nan); return err }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.fn()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !errors.Is(err, ErrBadFilterConfig) {
				t.Errorf("error %v does not wrap ErrBadFilterConfig", err)
			}
		})
	}
}

// TestFilterDesignFiniteCoefficients pins the bug the typed errors fix:
// NaN parameters used to pass the range checks (NaN comparisons are all
// false) and produce a filter full of NaN coefficients.
func TestFilterDesignFiniteCoefficients(t *testing.T) {
	f, err := NewLowPass(1000, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if y := f.Process(1); math.IsNaN(y) {
		t.Error("valid filter produced NaN")
	}
}

func TestBiquadReset(t *testing.T) {
	f, err := NewLowPass(1000, 8000)
	if err != nil {
		t.Fatal(err)
	}
	first := f.Process(1)
	f.Process(1)
	f.Reset()
	if got := f.Process(1); got != first {
		t.Errorf("after Reset, Process(1) = %v, want %v", got, first)
	}
}

func TestFilterChain(t *testing.T) {
	const sampleRate = 16000.0
	f1, err := NewLowPass(6000, sampleRate)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewLowPass(6000, sampleRate)
	if err != nil {
		t.Fatal(err)
	}
	chain := FilterChain{f1, f2}
	x := sine(7800, sampleRate, 16000)
	y := chain.ProcessAll(x)
	// Two cascaded stages attenuate more than one.
	single, err := NewLowPass(6000, sampleRate)
	if err != nil {
		t.Fatal(err)
	}
	y1 := single.ProcessAll(x)
	if RMS(y[4000:]) >= RMS(y1[4000:]) {
		t.Errorf("cascade RMS %v >= single-stage RMS %v", RMS(y[4000:]), RMS(y1[4000:]))
	}
	chain.Reset()
	if got := chain.Process(0); got != 0 {
		t.Errorf("Process(0) after reset = %v, want 0", got)
	}
}

func TestRMS(t *testing.T) {
	if got := RMS(nil); got != 0 {
		t.Errorf("RMS(nil) = %v, want 0", got)
	}
	x := []float64{1, -1, 1, -1}
	if got := RMS(x); math.Abs(got-1) > 1e-12 {
		t.Errorf("RMS = %v, want 1", got)
	}
	s := sine(100, 8000, 8000)
	if got := RMS(s); math.Abs(got-1/math.Sqrt2) > 1e-3 {
		t.Errorf("sine RMS = %v, want %v", got, 1/math.Sqrt2)
	}
}

// lowPassSink keeps BenchmarkLowPass's results live.
var lowPassSink []float64

// BenchmarkLowPass filters one second of four-mic 16 kHz audio at the
// paper's 6 kHz cutoff, one lane at a time (four scalar ProcessAll
// chains) against the four-lane Biquad4.
func BenchmarkLowPass(b *testing.B) {
	const rate = 16000
	var x [4][]float64
	for c := range x {
		x[c] = randSignal(rate, int64(c)+1)
	}
	lp, err := NewLowPass(6000, rate)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("one-lane", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ch := range x {
				f := *lp
				lowPassSink = f.ProcessAll(ch)
			}
		}
	})
	b.Run("four-lane", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lowPassSink = lp.Lanes4().ProcessAll(x)[3]
		}
	})
}
