package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randSignal returns a deterministic pseudo-random real signal.
func randSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestForwardRealMatchesComplexFFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 256, 2048} {
		x := randSignal(n, int64(n))
		want := naiveDFT(asComplex(x)) // full spectrum via the complex DFT
		got := PlanFFT(n).ForwardReal(x, Spectrum{})
		if len(got.Re) != n/2+1 || len(got.Im) != n/2+1 {
			t.Fatalf("n=%d: spectrum length %d/%d, want %d", n, len(got.Re), len(got.Im), n/2+1)
		}
		for k := range got.Re {
			if math.Abs(got.Re[k]-real(want[k])) > 1e-8*float64(n) || math.Abs(got.Im[k]-imag(want[k])) > 1e-8*float64(n) {
				t.Fatalf("n=%d bin %d: ForwardReal (%g,%g), naive DFT %v", n, k, got.Re[k], got.Im[k], want[k])
			}
		}
	}
}

func TestInverseRealRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 1024} {
		x := randSignal(n, int64(n)+7)
		plan := PlanFFT(n)
		spec := plan.ForwardReal(x, Spectrum{})
		back := plan.InverseReal(spec, nil)
		if len(back) != n {
			t.Fatalf("n=%d: round-trip length %d", n, len(back))
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d sample %d: round-trip %g, want %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestForwardRealReusesOutput(t *testing.T) {
	x := randSignal(64, 3)
	plan := PlanFFT(64)
	buf := Spectrum{Re: make([]float64, plan.SpectrumLen()), Im: make([]float64, plan.SpectrumLen())}
	out := plan.ForwardReal(x, buf)
	if &out.Re[0] != &buf.Re[0] || &out.Im[0] != &buf.Im[0] {
		t.Error("ForwardReal allocated despite sufficient capacity")
	}
	fbuf := make([]float64, 64)
	back := plan.InverseReal(out, fbuf)
	if &back[0] != &fbuf[0] {
		t.Error("InverseReal allocated despite sufficient capacity")
	}
}

func TestBandPowerMatchesBandEnergy(t *testing.T) {
	const n, rate = 1024, 8000.0
	spec := PlanFFT(n).ForwardReal(randSignal(n, 5), Spectrum{})
	mags := Magnitudes(spec)
	for _, band := range []Band{{Name: "low", Low: 100, High: 900}, {Name: "mid", Low: 900, High: 2500}, {Name: "high", Low: 2500, High: 4000}} {
		// The fused sum differs from squaring the magnitudes back only
		// by rounding.
		want := BandEnergy(mags, n, rate, band)
		if got := BandPower(spec, n, rate, band); math.Abs(got-want) > 1e-12*want {
			t.Errorf("band %s: BandPower %g, BandEnergy %g", band.Name, got, want)
		}
	}
}

func TestArenaByteAccounting(t *testing.T) {
	before := ArenaInUseBytes()
	buf := Acquire(1024)         // 8 KiB
	spec := AcquireSpectrum(256) // 2 x 2 KiB
	if got := ArenaInUseBytes() - before; got != 8*1024+2*8*256 {
		t.Errorf("in-use delta %d after acquire, want %d", got, 8*1024+2*8*256)
	}
	if ArenaPeakBytes() < ArenaInUseBytes() {
		t.Errorf("peak %d below in-use %d", ArenaPeakBytes(), ArenaInUseBytes())
	}
	Release(buf)
	ReleaseSpectrum(spec)
	if got := ArenaInUseBytes(); got != before {
		t.Errorf("in-use %d after release, want %d", got, before)
	}
}

// BenchmarkForwardReal times the real FFT at the signature sub-frame
// sizes (1024, 2048) and the triage window (8192).
func BenchmarkForwardReal(b *testing.B) {
	for _, n := range []int{1024, 2048, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := randSignal(n, 1)
			plan := PlanFFT(n)
			out := AcquireSpectrum(plan.SpectrumLen())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = plan.ForwardReal(x, out)
			}
		})
	}
}
