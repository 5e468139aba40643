package dsp

import (
	"errors"
	"math"
	"testing"
)

func sine(freq, sampleRate float64, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / sampleRate)
	}
	return x
}

func TestSTFTShape(t *testing.T) {
	const sampleRate = 8000.0
	x := sine(440, sampleRate, 8000)
	spec, err := STFT(x, sampleRate, STFTConfig{WindowSize: 1024, HopSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	wantFrames := (8000-1024)/512 + 1
	if spec.Frames() != wantFrames {
		t.Errorf("Frames() = %d, want %d", spec.Frames(), wantFrames)
	}
	if spec.Bins() != 1024/2+1 {
		t.Errorf("Bins() = %d, want %d", spec.Bins(), 513)
	}
}

func TestSTFTPadUsesNextPow2(t *testing.T) {
	x := sine(100, 8000, 4000)
	spec, err := STFT(x, 8000, STFTConfig{WindowSize: 1000, HopSize: 500, Pad: true})
	if err != nil {
		t.Fatal(err)
	}
	if spec.NFFT != 1024 {
		t.Errorf("NFFT = %d, want 1024", spec.NFFT)
	}
}

func TestSTFTInvalidConfig(t *testing.T) {
	tests := []struct {
		name string
		cfg  STFTConfig
	}{
		{"zero window", STFTConfig{WindowSize: 0, HopSize: 1}},
		{"zero hop", STFTConfig{WindowSize: 16, HopSize: 0}},
		{"negative window", STFTConfig{WindowSize: -4, HopSize: 4}},
		{"unpadded non power of two", STFTConfig{WindowSize: 1000, HopSize: 500}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := STFT([]float64{1, 2, 3}, 8000, tt.cfg); !errors.Is(err, ErrBadSTFTConfig) {
				t.Errorf("err = %v, want ErrBadSTFTConfig", err)
			}
		})
	}
}

func TestSTFTPeakTracksSine(t *testing.T) {
	const sampleRate = 16000.0
	x := sine(2500, sampleRate, 16000)
	spec, err := STFT(x, sampleRate, STFTConfig{WindowSize: 2048, HopSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.Frames(); i++ {
		bin, _ := spec.PeakBin(i, 100, 7000)
		freq := BinFrequency(bin, spec.NFFT, sampleRate)
		if math.Abs(freq-2500) > 2*sampleRate/float64(spec.NFFT) {
			t.Fatalf("frame %d: peak at %g Hz, want ~2500", i, freq)
		}
	}
}

func TestBandEnergySelectivity(t *testing.T) {
	const sampleRate = 16000.0
	// Signal with energy at 200 Hz only.
	x := sine(200, sampleRate, 16000)
	spec, err := STFT(x, sampleRate, STFTConfig{WindowSize: 4096, HopSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	low := Band{Name: "blade", Low: 100, High: 400}
	high := Band{Name: "aero", Low: 5000, High: 6000}
	energies := spec.BandEnergies([]Band{low, high})
	for i, row := range energies {
		if row[0] < 10*row[1] {
			t.Errorf("frame %d: in-band %g not dominant over out-of-band %g", i, row[0], row[1])
		}
	}
}

func TestBandContains(t *testing.T) {
	b := Band{Low: 100, High: 300}
	for _, tt := range []struct {
		f    float64
		want bool
	}{{99, false}, {100, true}, {200, true}, {300, true}, {301, false}} {
		if got := b.Contains(tt.f); got != tt.want {
			t.Errorf("Contains(%g) = %v, want %v", tt.f, got, tt.want)
		}
	}
}

func TestMeanSpectrum(t *testing.T) {
	x := sine(1000, 8000, 8192)
	spec, err := STFT(x, 8000, STFTConfig{WindowSize: 1024, HopSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	mean := spec.MeanSpectrum()
	if len(mean) != spec.Bins() {
		t.Fatalf("MeanSpectrum length = %d, want %d", len(mean), spec.Bins())
	}
	peak := 0
	for k := range mean {
		if mean[k] > mean[peak] {
			peak = k
		}
	}
	freq := BinFrequency(peak, spec.NFFT, 8000)
	if math.Abs(freq-1000) > 20 {
		t.Errorf("mean spectrum peak at %g Hz, want ~1000", freq)
	}
}

func TestMeanSpectrumEmpty(t *testing.T) {
	s := &Spectrogram{}
	if got := s.MeanSpectrum(); got != nil {
		t.Errorf("MeanSpectrum of empty = %v, want nil", got)
	}
	if s.Bins() != 0 {
		t.Errorf("Bins of empty = %d, want 0", s.Bins())
	}
}

func TestFrameTime(t *testing.T) {
	s := &Spectrogram{HopSize: 400, SampleRate: 8000}
	if got := s.FrameTime(2); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("FrameTime(2) = %v, want 0.1", got)
	}
}

func TestWindows(t *testing.T) {
	tests := []struct {
		name string
		fn   WindowFunc
	}{
		{"hann", Hann},
		{"hamming", Hamming},
		{"blackman", Blackman},
		{"rect", Rectangular},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := tt.fn(64)
			if len(w) != 64 {
				t.Fatalf("len = %d, want 64", len(w))
			}
			for i, v := range w {
				if v < -1e-12 || v > 1+1e-12 {
					t.Errorf("w[%d] = %v out of [0,1]", i, v)
				}
			}
			// One-sample windows must be usable.
			if one := tt.fn(1); len(one) != 1 || one[0] != 1 {
				t.Errorf("window(1) = %v, want [1]", one)
			}
		})
	}
}

func TestHannSymmetry(t *testing.T) {
	w := Hann(101)
	for i := 0; i < len(w)/2; i++ {
		if math.Abs(w[i]-w[len(w)-1-i]) > 1e-12 {
			t.Fatalf("asymmetric at %d", i)
		}
	}
	if math.Abs(w[50]-1) > 1e-12 {
		t.Errorf("Hann center = %v, want 1", w[50])
	}
}

func TestApplyWindowTruncates(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	w := []float64{0.5, 0.5}
	got := ApplyWindow(x, w)
	if len(got) != 2 || got[0] != 0.5 || got[1] != 1 {
		t.Errorf("ApplyWindow = %v, want [0.5 1]", got)
	}
}
