package dsp

import (
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
	for _, n := range []int{1, 2, 4, 8, 64, 256, 2048, 12, 100} {
		x := randSignal(n, int64(n))
		c := make([]complex128, n)
		for i, v := range x {
			c[i] = complex(v, 0)
		}
		want := transform(c, false) // full spectrum via the complex transform
		plan := PlanFFT(n)
		got := plan.ForwardReal(x, nil)
		if len(got) != n/2+1 {
			t.Fatalf("n=%d: spectrum length %d, want %d", n, len(got), n/2+1)
		}
		// Cross-check against a direct DFT of the first bins.
		for k := range got {
			var re, im float64
			for i, v := range x {
				angle := -2 * math.Pi * float64(k) * float64(i) / float64(n)
				re += v * math.Cos(angle)
				im += v * math.Sin(angle)
			}
			if math.Abs(real(got[k])-re) > 1e-8*float64(n) || math.Abs(imag(got[k])-im) > 1e-8*float64(n) {
				t.Fatalf("n=%d bin %d: ForwardReal %v, direct DFT (%g,%g)", n, k, got[k], re, im)
			}
			if math.Abs(real(got[k])-real(want[k])) > 1e-9*float64(n) || math.Abs(imag(got[k])-imag(want[k])) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: ForwardReal %v, complex transform %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestInverseRealRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 1024, 12, 100} {
		x := randSignal(n, int64(n)+7)
		plan := PlanFFT(n)
		spec := plan.ForwardReal(x, nil)
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
	buf := make([]complex128, plan.SpectrumLen())
	out := plan.ForwardReal(x, buf)
	if &out[0] != &buf[0] {
		t.Error("ForwardReal allocated despite sufficient capacity")
	}
	fbuf := make([]float64, 64)
	back := plan.InverseReal(out, fbuf)
	if &back[0] != &fbuf[0] {
		t.Error("InverseReal allocated despite sufficient capacity")
	}
}

func TestPlan32ForwardRealTolerance(t *testing.T) {
	for _, n := range []int{2, 8, 256, 2048, 12} {
		x64 := randSignal(n, int64(n)+13)
		x32 := make([]float32, n)
		for i, v := range x64 {
			x32[i] = float32(v)
		}
		ref := PlanFFT(n).ForwardReal(x64, nil)
		got := PlanFFT32(n).ForwardReal(x32, nil)
		if len(got) != n/2+1 {
			t.Fatalf("n=%d: spectrum length %d", n, len(got))
		}
		// Scale-relative bound: float32 FFT error grows ~sqrt(n)*eps
		// relative to the spectrum magnitude.
		var scale float64
		for _, c := range ref {
			if m := math.Hypot(real(c), imag(c)); m > scale {
				scale = m
			}
		}
		tol := 1e-5 * scale * math.Sqrt(float64(n))
		for k := range got {
			dr := math.Abs(float64(real(got[k])) - real(ref[k]))
			di := math.Abs(float64(imag(got[k])) - imag(ref[k]))
			if dr > tol || di > tol {
				t.Fatalf("n=%d bin %d: float32 %v vs float64 %v (tol %g)", n, k, got[k], ref[k], tol)
			}
		}
	}
}

func TestPlan32ForwardMatchesFloat64(t *testing.T) {
	n := 128
	x64 := randSignal(n, 99)
	buf64 := make([]complex128, n)
	buf32 := make([]complex64, n)
	for i, v := range x64 {
		buf64[i] = complex(v, 0)
		buf32[i] = complex(float32(v), 0)
	}
	PlanFFT(n).Forward(buf64)
	PlanFFT32(n).Forward(buf32)
	for k := range buf64 {
		if math.Abs(float64(real(buf32[k]))-real(buf64[k])) > 1e-3 ||
			math.Abs(float64(imag(buf32[k]))-imag(buf64[k])) > 1e-3 {
			t.Fatalf("bin %d: %v vs %v", k, buf32[k], buf64[k])
		}
	}
}

func TestBandPower32MatchesBandEnergy(t *testing.T) {
	const n, rate = 1024, 8000.0
	x64 := randSignal(n, 5)
	x32 := make([]float32, n)
	for i, v := range x64 {
		x32[i] = float32(v)
	}
	spec64 := PlanFFT(n).ForwardReal(x64, nil)
	mags := Magnitudes(spec64)
	spec32 := PlanFFT32(n).ForwardReal(x32, nil)
	for _, band := range []Band{{Name: "low", Low: 100, High: 900}, {Name: "mid", Low: 900, High: 2500}, {Name: "high", Low: 2500, High: 4000}} {
		want := BandEnergy(mags, n, rate, band)
		got := BandPower32(spec32, n, rate, band)
		if math.Abs(got-want) > 1e-3*(1+want) {
			t.Errorf("band %s: BandPower32 %g, BandEnergy %g", band.Name, got, want)
		}
	}
}

func TestFloat32ArenaReuse(t *testing.T) {
	a := AcquireComplex64(512)
	for i := range a {
		a[i] = complex(float32(i), 0)
	}
	ReleaseComplex64(a)
	b := AcquireComplex64(512)
	defer ReleaseComplex64(b)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("reused complex64 buffer not zeroed at %d: %v", i, v)
		}
	}
	f := AcquireFloats32(256)
	for i := range f {
		f[i] = 1
	}
	ReleaseFloats32(f)
	g := AcquireFloats32(256)
	defer ReleaseFloats32(g)
	for i, v := range g {
		if v != 0 {
			t.Fatalf("reused float32 buffer not zeroed at %d: %v", i, v)
		}
	}
}

func TestArenaByteAccounting(t *testing.T) {
	before := ArenaInUseBytes()
	buf := AcquireComplex64(1024) // 8 KiB
	if got := ArenaInUseBytes() - before; got != 8*1024 {
		t.Errorf("in-use delta %d after acquire, want 8192", got)
	}
	if ArenaPeakBytes() < ArenaInUseBytes() {
		t.Errorf("peak %d below in-use %d", ArenaPeakBytes(), ArenaInUseBytes())
	}
	ReleaseComplex64(buf)
	if got := ArenaInUseBytes(); got != before {
		t.Errorf("in-use %d after release, want %d", got, before)
	}
}

func TestCachedHann32MatchesFloat64(t *testing.T) {
	w64 := CachedHann(401)
	w32 := CachedHann32(401)
	if len(w32) != len(w64) {
		t.Fatalf("length %d, want %d", len(w32), len(w64))
	}
	for i := range w64 {
		if math.Abs(float64(w32[i])-w64[i]) > 1e-6 {
			t.Fatalf("index %d: %g vs %g", i, w32[i], w64[i])
		}
	}
	if &CachedHann32(401)[0] != &w32[0] {
		t.Error("CachedHann32 not cached")
	}
}

func BenchmarkForwardReal(b *testing.B) {
	const n = 2048
	x := randSignal(n, 1)
	plan := PlanFFT(n)
	out := make([]complex128, plan.SpectrumLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = plan.ForwardReal(x, out)
	}
}

func BenchmarkForwardComplex(b *testing.B) {
	const n = 2048
	x := randSignal(n, 1)
	buf := make([]complex128, n)
	plan := PlanFFT(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range x {
			buf[j] = complex(v, 0)
		}
		plan.Forward(buf)
	}
}

func BenchmarkForwardReal32(b *testing.B) {
	const n = 2048
	x64 := randSignal(n, 1)
	x := make([]float32, n)
	for i, v := range x64 {
		x[i] = float32(v)
	}
	plan := PlanFFT32(n)
	out := make([]complex64, plan.SpectrumLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = plan.ForwardReal(x, out)
	}
}
