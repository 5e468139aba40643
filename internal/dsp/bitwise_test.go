package dsp

import (
	"math"
	"testing"
)

// refButterfly is the plain radix-2 loop the plan's butterfly unrolls:
// every stage strides through the full twiddle table. It is the
// bitwise reference for the production kernel.
func refButterfly(p *Plan, re, im []float64) {
	h := len(re)
	for size := 2; size <= h; size <<= 1 {
		half := size >> 1
		stride := p.n / size
		for start := 0; start < h; start += size {
			for k := 0; k < half; k++ {
				wr, wi := p.twRe[k*stride], p.twIm[k*stride]
				br, bi := re[start+half+k], im[start+half+k]
				tr := br*wr - bi*wi
				ti := br*wi + bi*wr
				ar, ai := re[start+k], im[start+k]
				re[start+k], im[start+k] = ar+tr, ai+ti
				re[start+half+k], im[start+half+k] = ar-tr, ai-ti
			}
		}
	}
}

// refForwardReal is ForwardReal spelled out over refButterfly.
func refForwardReal(p *Plan, x []float64) Spectrum {
	n := p.n
	out := Spectrum{Re: make([]float64, p.SpectrumLen()), Im: make([]float64, p.SpectrumLen())}
	switch n {
	case 0:
		return out
	case 1:
		out.Re[0] = x[0]
		return out
	}
	h := n / 2
	zr, zi := make([]float64, h), make([]float64, h)
	for k, j := range p.bitrev {
		zr[k], zi[k] = x[2*j], x[2*j+1]
	}
	refButterfly(p, zr, zi)
	out.Re[0], out.Re[h] = zr[0]+zi[0], zr[0]-zi[0]
	for k := 1; k < h; k++ {
		ar, ai := zr[k], zi[k]
		cr, ci := zr[h-k], -zi[h-k]
		fer, fei := (ar+cr)*0.5, (ai+ci)*0.5
		for_, foi := (ai-ci)*0.5, (cr-ar)*0.5
		wr, wi := p.twRe[k], p.twIm[k]
		out.Re[k], out.Im[k] = fer+for_*wr-foi*wi, fei+for_*wi+foi*wr
	}
	return out
}

// refInverseReal is InverseReal spelled out over refButterfly.
func refInverseReal(p *Plan, spec Spectrum) []float64 {
	n := p.n
	out := make([]float64, n)
	switch n {
	case 0:
		return out
	case 1:
		out[0] = spec.Re[0]
		return out
	}
	h := n / 2
	zr, zi := make([]float64, h), make([]float64, h)
	for k, j := range p.bitrev {
		ar, ai := spec.Re[j], spec.Im[j]
		br, bi := spec.Re[h-j], -spec.Im[h-j]
		fer, fei := (ar+br)*0.5, (ai+bi)*0.5
		dr, di := (ar-br)*0.5, (ai-bi)*0.5
		wr, wi := p.twRe[j], -p.twIm[j]
		for_, foi := dr*wr-di*wi, dr*wi+di*wr
		zr[k], zi[k] = fer-foi, -(fei + for_)
	}
	refButterfly(p, zr, zi)
	scale := 1 / float64(h)
	for k := 0; k < h; k++ {
		out[2*k] = zr[k] * scale
		out[2*k+1] = -zi[k] * scale
	}
	return out
}

// sameBits reports whether a and b hold bit-identical values, signed
// zeros included, and returns the
// first index that differs. Any NaN matches any NaN: x86 propagates the
// NaN of one particular operand and the compiler may commute an
// addition's operands, so a NaN's sign and payload depend on code
// generation even for unchanged source.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.IsNaN(x) && math.IsNaN(y) {
			continue
		}
		if math.Float64bits(x) != math.Float64bits(y) {
			return i, false
		}
	}
	return 0, true
}

// bitwiseSignals returns the inputs of the bitwise FFT test at size n:
// Gaussian noise, an impulse, signed zeros, and noise with a NaN and
// both infinities planted in it.
func bitwiseSignals(n int) map[string][]float64 {
	noise := randSignal(n, int64(n)+31)
	impulse := make([]float64, n)
	impulse[n/3] = 1
	zeros := make([]float64, n)
	for i := range zeros {
		if i%3 == 1 {
			zeros[i] = math.Copysign(0, -1)
		}
	}
	special := randSignal(n, int64(n)+37)
	special[n/2] = math.NaN()
	special[n/4] = math.Inf(1)
	special[n-1] = math.Inf(-1)
	return map[string][]float64{"noise": noise, "impulse": impulse, "zeros": zeros, "special": special}
}

func testTransformsBitwise(t *testing.T) {
	for n := 1; n <= 16384; n <<= 1 {
		p := PlanFFT(n)
		for name, x := range bitwiseSignals(n) {
			got := p.ForwardReal(x, Spectrum{})
			want := refForwardReal(p, x)
			if i, ok := sameBits(got.Re, want.Re); !ok {
				t.Fatalf("n=%d %s: ForwardReal Re[%d] = %v, reference %v", n, name, i, got.Re[i], want.Re[i])
			}
			if i, ok := sameBits(got.Im, want.Im); !ok {
				t.Fatalf("n=%d %s: ForwardReal Im[%d] = %v, reference %v", n, name, i, got.Im[i], want.Im[i])
			}
			back := p.InverseReal(want, nil)
			if i, ok := sameBits(back, refInverseReal(p, want)); !ok {
				t.Fatalf("n=%d %s: InverseReal[%d] differs from the reference", n, name, i)
			}
		}
	}
}

// TestFFTBitwiseMatchesRadix2Reference pins the unrolled butterfly and
// per-stage twiddles to the plain radix-2 loop, bit for bit, at every
// power of two up to 16384.
func TestFFTBitwiseMatchesRadix2Reference(t *testing.T) {
	t.Run("float64", testTransformsBitwise)
}

// TestBiquad4BitwiseMatchesScalar checks the four-lane biquad against
// four scalar Process chains, bit for bit, over batch and per-sample
// stepping, and that a NaN or Inf in one lane leaves the others alone.
func TestBiquad4BitwiseMatchesScalar(t *testing.T) {
	const rate, n = 16000.0, 4001
	var in [4][]float64
	for c := range in {
		in[c] = randSignal(n, int64(c)+41)
	}
	in[1][100] = math.NaN()
	in[2][200] = math.Inf(1)
	in[3][300] = math.Copysign(0, -1)
	lp, err := NewLowPass(6000, rate)
	if err != nil {
		t.Fatal(err)
	}
	var want [4][]float64
	for c := range want {
		scalar := *lp
		want[c] = make([]float64, n)
		for i, v := range in[c] {
			want[c][i] = scalar.Process(v)
		}
	}
	// Batch, split across two calls so state carries over.
	quad := lp.Lanes4()
	head := quad.ProcessAll([4][]float64{in[0][:1000], in[1][:1000], in[2][:1000], in[3][:1000]})
	tail := quad.ProcessAll([4][]float64{in[0][1000:], in[1][1000:], in[2][1000:], in[3][1000:]})
	// Per sample.
	step := lp.Lanes4()
	var stepped [4][]float64
	for i := 0; i < n; i++ {
		y := step.Process([4]float64{in[0][i], in[1][i], in[2][i], in[3][i]})
		for c := range stepped {
			stepped[c] = append(stepped[c], y[c])
		}
	}
	for c := range want {
		batch := append(append([]float64(nil), head[c]...), tail[c]...)
		if i, ok := sameBits(batch, want[c]); !ok {
			t.Errorf("lane %d: ProcessAll sample %d differs from scalar Process", c, i)
		}
		if i, ok := sameBits(stepped[c], want[c]); !ok {
			t.Errorf("lane %d: Process sample %d differs from scalar Process", c, i)
		}
		scalar := *lp
		if i, ok := sameBits(scalar.ProcessAll(in[c]), want[c]); !ok {
			t.Errorf("channel %d: Biquad.ProcessAll sample %d differs from Process", c, i)
		}
	}
	for _, lane0 := range [][]float64{head[0], tail[0], stepped[0]} {
		for i, v := range lane0 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("lane 0 sample %d = %v: a non-finite value leaked from another lane", i, v)
			}
		}
	}
	if !math.IsNaN(stepped[1][n-1]) || !math.IsNaN(tail[1][len(tail[1])-1]) {
		t.Error("lane 1 should stay NaN after its NaN input")
	}
}
