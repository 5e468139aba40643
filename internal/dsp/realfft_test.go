package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"soundboost/internal/mathx"
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

// narrow converts a float64 signal to float32.
func narrow(x []float64) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		out[i] = float32(v)
	}
	return out
}

func TestForwardRealMatchesComplexFFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 256, 2048} {
		x := randSignal(n, int64(n))
		want := naiveDFT(asComplex(x)) // full spectrum via the complex DFT
		got := PlanFFT[float64](n).ForwardReal(x, Spectrum[float64]{})
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
		plan := PlanFFT[float64](n)
		spec := plan.ForwardReal(x, Spectrum[float64]{})
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
	plan := PlanFFT[float64](64)
	buf := Spectrum[float64]{Re: make([]float64, plan.SpectrumLen()), Im: make([]float64, plan.SpectrumLen())}
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

func TestPlan32ForwardRealTolerance(t *testing.T) {
	for _, n := range []int{2, 8, 256, 2048} {
		x64 := randSignal(n, int64(n)+13)
		ref := PlanFFT[float64](n).ForwardReal(x64, Spectrum[float64]{})
		got := PlanFFT[float32](n).ForwardReal(narrow(x64), Spectrum[float32]{})
		if len(got.Re) != n/2+1 {
			t.Fatalf("n=%d: spectrum length %d", n, len(got.Re))
		}
		// Scale-relative bound: float32 FFT error grows ~sqrt(n)*eps
		// relative to the spectrum magnitude.
		var scale float64
		for k := range ref.Re {
			if m := math.Hypot(ref.Re[k], ref.Im[k]); m > scale {
				scale = m
			}
		}
		tol := 1e-5 * scale * math.Sqrt(float64(n))
		for k := range got.Re {
			dr := math.Abs(float64(got.Re[k]) - ref.Re[k])
			di := math.Abs(float64(got.Im[k]) - ref.Im[k])
			if dr > tol || di > tol {
				t.Fatalf("n=%d bin %d: float32 (%g,%g) vs float64 (%g,%g) (tol %g)", n, k, got.Re[k], got.Im[k], ref.Re[k], ref.Im[k], tol)
			}
		}
	}
}

func TestPlan32ForwardMatchesFloat64(t *testing.T) {
	n := 128
	x64 := randSignal(n, 99)
	ref := PlanFFT[float64](n).ForwardReal(x64, Spectrum[float64]{})
	got := PlanFFT[float32](n).ForwardReal(narrow(x64), Spectrum[float32]{})
	for k := range ref.Re {
		if math.Abs(float64(got.Re[k])-ref.Re[k]) > 1e-3 || math.Abs(float64(got.Im[k])-ref.Im[k]) > 1e-3 {
			t.Fatalf("bin %d: (%g,%g) vs (%g,%g)", k, got.Re[k], got.Im[k], ref.Re[k], ref.Im[k])
		}
	}
}

func TestBandPower32MatchesBandEnergy(t *testing.T) {
	const n, rate = 1024, 8000.0
	x64 := randSignal(n, 5)
	spec64 := PlanFFT[float64](n).ForwardReal(x64, Spectrum[float64]{})
	mags := Magnitudes(spec64)
	spec32 := PlanFFT[float32](n).ForwardReal(narrow(x64), Spectrum[float32]{})
	for _, band := range []Band{{Name: "low", Low: 100, High: 900}, {Name: "mid", Low: 900, High: 2500}, {Name: "high", Low: 2500, High: 4000}} {
		want := BandEnergy(mags, n, rate, band)
		if got := BandPower(spec32, n, rate, band); math.Abs(got-want) > 1e-3*(1+want) {
			t.Errorf("band %s: BandPower[float32] %g, BandEnergy %g", band.Name, got, want)
		}
		// At float64 the fused sum differs from squaring the magnitudes
		// back only by rounding.
		if got := BandPower(spec64, n, rate, band); math.Abs(got-want) > 1e-12*want {
			t.Errorf("band %s: BandPower[float64] %g, BandEnergy %g", band.Name, got, want)
		}
	}
}

func TestFloat32ArenaReuse(t *testing.T) {
	s := AcquireSpectrum[float32](512)
	for i := range s.Re {
		s.Re[i], s.Im[i] = float32(i), 1
	}
	ReleaseSpectrum(s)
	s2 := AcquireSpectrum[float32](512)
	defer ReleaseSpectrum(s2)
	for i := range s2.Re {
		if s2.Re[i] != 0 || s2.Im[i] != 0 {
			t.Fatalf("reused float32 spectrum not zeroed at %d", i)
		}
	}
	f := Acquire[float32](256)
	for i := range f {
		f[i] = 1
	}
	Release(f)
	g := Acquire[float32](256)
	defer Release(g)
	for i, v := range g {
		if v != 0 {
			t.Fatalf("reused float32 buffer not zeroed at %d: %v", i, v)
		}
	}
}

func TestArenaByteAccounting(t *testing.T) {
	before := ArenaInUseBytes()
	buf := Acquire[float32](1024)         // 4 KiB
	spec := AcquireSpectrum[float64](256) // 2 x 2 KiB
	if got := ArenaInUseBytes() - before; got != 4*1024+2*8*256 {
		t.Errorf("in-use delta %d after acquire, want %d", got, 4*1024+2*8*256)
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

func TestCachedHann32MatchesFloat64(t *testing.T) {
	w64 := CachedHann[float64](401)
	w32 := CachedHann[float32](401)
	if len(w32) != len(w64) {
		t.Fatalf("length %d, want %d", len(w32), len(w64))
	}
	for i := range w64 {
		if w32[i] != float32(w64[i]) {
			t.Fatalf("index %d: %g is not the narrowed %g", i, w32[i], w64[i])
		}
	}
	if &CachedHann[float32](401)[0] != &w32[0] {
		t.Error("CachedHann[float32] not cached")
	}
}

// BenchmarkForwardReal times the real FFT at the signature sub-frame
// sizes (1024, 2048) and the triage window (8192), at both precisions.
func BenchmarkForwardReal(b *testing.B) {
	for _, n := range []int{1024, 2048, 8192} {
		b.Run(fmt.Sprintf("n=%d/float64", n), benchmarkForwardReal[float64](n))
		b.Run(fmt.Sprintf("n=%d/float32", n), benchmarkForwardReal[float32](n))
	}
}

func benchmarkForwardReal[F mathx.Float](n int) func(b *testing.B) {
	return func(b *testing.B) {
		x := make([]F, n)
		for i, v := range randSignal(n, 1) {
			x[i] = F(v)
		}
		plan := PlanFFT[F](n)
		out := AcquireSpectrum[F](plan.SpectrumLen())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = plan.ForwardReal(x, out)
		}
	}
}
