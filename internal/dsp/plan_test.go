package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

func TestPlanMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 128, 512} {
		x := randSignal(n, int64(n)+11)
		got := toComplex(PlanFFT(n).ForwardReal(x, Spectrum{}))
		want := naiveDFT(asComplex(x))[:n/2+1]
		if tol := 1e-7 * float64(n); !complexSliceApproxEq(got, want, tol) {
			t.Errorf("n=%d: plan disagrees with naive DFT (tol %g)", n, tol)
		}
	}
}

func TestPlanInverseRoundTrip(t *testing.T) {
	for _, n := range []int{2, 8, 16, 64, 1024} {
		x := randSignal(n, int64(n)+12)
		p := PlanFFT(n)
		back := p.InverseReal(p.ForwardReal(x, Spectrum{}), nil)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-12*math.Sqrt(float64(n)) {
				t.Fatalf("n=%d sample %d: round trip %g, want %g", n, i, back[i], x[i])
			}
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
	PlanFFT(8).ForwardReal(make([]float64, 4), Spectrum{})
}

func TestPlanRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a non-power-of-two size")
		}
	}()
	PlanFFT(12)
}

func TestPlanConcurrentUseMatchesSerial(t *testing.T) {
	const n = 256
	inputs := make([][]float64, 32)
	want := make([]Spectrum, len(inputs))
	for i := range inputs {
		inputs[i] = randSignal(n, int64(i)+13)
		want[i] = realSpectrum(inputs[i])
	}
	p := PlanFFT(n)
	var wg sync.WaitGroup
	got := make([]Spectrum, len(inputs))
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = p.ForwardReal(inputs[i], Spectrum{})
		}(i)
	}
	wg.Wait()
	for i := range inputs {
		for k := range got[i].Re {
			if got[i].Re[k] != want[i].Re[k] || got[i].Im[k] != want[i].Im[k] {
				t.Fatalf("input %d bin %d: concurrent result differs from serial", i, k)
			}
		}
	}
}

func TestScratchArenaZeroesBuffers(t *testing.T) {
	buf := Acquire(64)
	for i := range buf {
		buf[i] = 1
	}
	Release(buf)
	again := Acquire(64)
	defer Release(again)
	for i, v := range again {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %v", i, v)
		}
	}
	spec := AcquireSpectrum(32)
	spec.Re[5], spec.Im[5] = 3, 4
	ReleaseSpectrum(spec)
	spec2 := AcquireSpectrum(32)
	defer ReleaseSpectrum(spec2)
	if spec2.Re[5] != 0 || spec2.Im[5] != 0 {
		t.Fatal("reused spectrum not zeroed")
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
		if &CachedHann(n)[0] != &got[0] {
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
