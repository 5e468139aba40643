package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

func TestPlanMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 32, 100, 128, 257} {
		x := randComplex(rng, n)
		got := make([]complex128, n)
		copy(got, x)
		PlanFFT(n).Forward(got)
		want := naiveDFT(x)
		if !complexSliceApproxEq(got, want, 1e-7*float64(n)) {
			t.Errorf("n=%d: plan Forward disagrees with naive DFT", n)
		}
	}
}

func TestPlanInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{2, 8, 15, 64, 100, 1024} {
		x := randComplex(rng, n)
		buf := make([]complex128, n)
		copy(buf, x)
		p := PlanFFT(n)
		p.Forward(buf)
		p.Inverse(buf)
		if !complexSliceApproxEq(buf, x, 1e-8*float64(n)) {
			t.Errorf("n=%d: Inverse(Forward(x)) != x", n)
		}
	}
}

func TestPlanCacheReturnsSameInstance(t *testing.T) {
	if PlanFFT(256) != PlanFFT(256) {
		t.Error("PlanFFT(256) not cached")
	}
	if PlanFFT(256).Size() != 256 {
		t.Error("wrong plan size")
	}
}

func TestPlanSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	PlanFFT(8).Forward(make([]complex128, 4))
}

func TestPlanConcurrentUseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 96 // non power of two: exercises the shared Bluestein path
	inputs := make([][]complex128, 32)
	want := make([][]complex128, len(inputs))
	for i := range inputs {
		inputs[i] = randComplex(rng, n)
		want[i] = transform(inputs[i], false)
	}
	p := PlanFFT(n)
	var wg sync.WaitGroup
	got := make([][]complex128, len(inputs))
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]complex128, n)
			copy(buf, inputs[i])
			p.Forward(buf)
			got[i] = buf
		}(i)
	}
	wg.Wait()
	for i := range inputs {
		for k := range got[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("input %d bin %d: concurrent %v != serial %v", i, k, got[i][k], want[i][k])
			}
		}
	}
}

func TestScratchArenaZeroesBuffers(t *testing.T) {
	buf := AcquireComplex(64)
	for i := range buf {
		buf[i] = complex(1, 1)
	}
	ReleaseComplex(buf)
	again := AcquireComplex(64)
	defer ReleaseComplex(again)
	for i, v := range again {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %v", i, v)
		}
	}
	f := AcquireFloats(32)
	f[5] = 3
	ReleaseFloats(f)
	f2 := AcquireFloats(32)
	defer ReleaseFloats(f2)
	if f2[5] != 0 {
		t.Fatal("reused float buffer not zeroed")
	}
}

func TestCachedHannMatchesHann(t *testing.T) {
	for _, n := range []int{1, 8, 125, 256} {
		got := CachedHann(n)
		want := Hann(n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: length mismatch", n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: CachedHann[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		if CachedHann(n)[0] != got[0] || &CachedHann(n)[0] != &got[0] {
			t.Fatalf("n=%d: CachedHann not cached", n)
		}
	}
}

// TestGoertzelOffBinMatchesDirectDFT is the regression test for the
// fractional-bin bias: the generalized Goertzel must match a direct DFT
// evaluation within 1e-9 relative error both on and off bin centers.
func TestGoertzelOffBinMatchesDirectDFT(t *testing.T) {
	const (
		sampleRate = 8000.0
		n          = 1000
	)
	rng := rand.New(rand.NewSource(21))
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / sampleRate
		x[i] = math.Sin(2*math.Pi*212.3*ti) + 0.5*math.Cos(2*math.Pi*987.1*ti) + 0.1*rng.NormFloat64()
	}
	directDFT := func(freq float64) float64 {
		var s complex128
		for m, v := range x {
			angle := -2 * math.Pi * freq * float64(m) / sampleRate
			s += complex(v, 0) * cmplx.Exp(complex(0, angle))
		}
		return cmplx.Abs(s)
	}
	// Bin spacing is 8 Hz: 200 and 1000 are on-bin, the rest fractional.
	for _, freq := range []float64{200, 1000, 212.3, 987.1, 3.7, 123.456, 3999.1} {
		want := directDFT(freq)
		got := Goertzel(x, freq, sampleRate)
		rel := math.Abs(got-want) / math.Max(want, 1e-30)
		if rel > 1e-9 {
			t.Errorf("freq %g: Goertzel %v vs direct DFT %v (rel err %.3g)", freq, got, want, rel)
		}
	}
}

func BenchmarkPlanForward1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randComplex(rng, 1024)
	p := PlanFFT(1024)
	buf := make([]complex128, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.Forward(buf)
	}
}

func BenchmarkPlanBluestein1000(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randComplex(rng, 1000)
	p := PlanFFT(1000)
	buf := make([]complex128, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.Forward(buf)
	}
}
