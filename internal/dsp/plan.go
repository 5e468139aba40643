package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"soundboost/internal/obs"
)

// Stage metrics, resolved once at init. Recording is gated by
// obs.Enable, so the disabled path costs one atomic load per transform.
var (
	fftTimer     = obs.Default.Timer("dsp.fft.transform")
	fftPlanCount = obs.Default.Counter("dsp.fft.plans_built")
)

// Spectrum is the non-redundant half spectrum X[0..n/2] of a real
// signal of length n, stored as split real and imaginary parts.
type Spectrum struct {
	Re, Im []float64
}

// Plan holds everything size-dependent a real-input FFT of length n
// needs: the bit-reversal permutation of the half-length complex
// transform, the twiddle table exp(-2*pi*i*k/n), k < n/2, of the
// packed-real untangle, and the same twiddles regrouped stage by stage
// for the half-length butterflies. Sizes are powers of
// two. Plans are immutable after construction and safe for concurrent
// use; PlanFFT caches one plan per size, so every session, stream
// engine and fleet replica in the process shares one table set.
type Plan struct {
	n          int
	bitrev     []int // permutation of the n/2-point complex transform
	twRe, twIm []float64
	// stageRe, stageIm hold the butterfly twiddles stage after stage:
	// the stage of half-size m reads entries [m-1, 2m-1), entry m-1+k
	// being twiddle k*n/(2m). Each stage walks its twiddles
	// contiguously instead of striding through twRe/twIm.
	stageRe, stageIm []float64
}

// planCache maps size -> *Plan.
var planCache sync.Map

// PlanFFT returns the cached real-input transform plan for size n,
// building it on first use. n must be zero or a power of two (callers
// size transforms with NextPow2). The returned plan is shared and
// read-only.
func PlanFFT(n int) *Plan {
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan)
	}
	if n < 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT size %d is not a power of two", n))
	}
	p := &Plan{n: n}
	if h := n / 2; h >= 1 {
		shift := 64 - uint(bits.TrailingZeros(uint(h)))
		p.bitrev = make([]int, h)
		p.twRe = make([]float64, h)
		p.twIm = make([]float64, h)
		for k := 0; k < h; k++ {
			p.bitrev[k] = int(bits.Reverse64(uint64(k)) >> shift)
			angle := 2 * math.Pi * float64(k) / float64(n)
			s, c := math.Sincos(-angle)
			p.twRe[k], p.twIm[k] = c, s
		}
		p.stageRe = make([]float64, 0, h-1)
		p.stageIm = make([]float64, 0, h-1)
		for m := 1; m < h; m <<= 1 {
			stride := n / (2 * m)
			for k := 0; k < m; k++ {
				p.stageRe = append(p.stageRe, p.twRe[k*stride])
				p.stageIm = append(p.stageIm, p.twIm[k*stride])
			}
		}
	}
	actual, _ := planCache.LoadOrStore(n, p)
	fftPlanCount.Inc()
	return actual.(*Plan)
}

// Size returns the transform length the plan was built for.
func (p *Plan) Size() int { return p.n }

// SpectrumLen returns the number of non-redundant spectrum bins:
// Size()/2 + 1 (0 for the empty transform).
func (p *Plan) SpectrumLen() int {
	if p.n == 0 {
		return 0
	}
	return p.n/2 + 1
}

// butterfly is the iterative in-place forward Cooley-Tukey transform of
// the bit-reversed half-length complex sequence (re, im), spelled out
// in component arithmetic over the split layout; it rounds exactly like
// complex128.
//
// The size-2 and size-4 stages, whose groups hold one and two
// butterflies, run as flat loops over the whole sequence with their
// twiddles hoisted; later stages read the contiguous per-stage
// twiddles. Every butterfly evaluates the same expression on the same
// table values as the plain radix-2 loop, so the result is bitwise
// identical to it.
func (p *Plan) butterfly(re, im []float64) {
	h := len(re)
	im = im[:h]
	if h < 2 {
		return
	}
	// Size 2: the one twiddle is entry 0 of the table, (1, -0).
	wr, wi := p.stageRe[0], p.stageIm[0]
	for s := 0; s < h; s += 2 {
		xr, xi := re[s:s+2], im[s:s+2]
		br, bi := xr[1], xi[1]
		tr := br*wr - bi*wi
		ti := br*wi + bi*wr
		ar, ai := xr[0], xi[0]
		xr[0], xi[0] = ar+tr, ai+ti
		xr[1], xi[1] = ar-tr, ai-ti
	}
	if h < 4 {
		return
	}
	// Size 4: butterflies (s, s+2) and (s+1, s+3) of every group.
	w0r, w0i := p.stageRe[1], p.stageIm[1]
	w1r, w1i := p.stageRe[2], p.stageIm[2]
	for s := 0; s < h; s += 4 {
		xr, xi := re[s:s+4], im[s:s+4]
		br, bi := xr[2], xi[2]
		tr := br*w0r - bi*w0i
		ti := br*w0i + bi*w0r
		ar, ai := xr[0], xi[0]
		xr[0], xi[0] = ar+tr, ai+ti
		xr[2], xi[2] = ar-tr, ai-ti
		br, bi = xr[3], xi[3]
		tr = br*w1r - bi*w1i
		ti = br*w1i + bi*w1r
		ar, ai = xr[1], xi[1]
		xr[1], xi[1] = ar+tr, ai+ti
		xr[3], xi[3] = ar-tr, ai-ti
	}
	for half := 4; half < h; half <<= 1 {
		size := half << 1
		twr, twi := p.stageRe[half-1:size-1], p.stageIm[half-1:size-1]
		for start := 0; start < h; start += size {
			// Equal-length views let the compiler drop bounds checks.
			xr, xi := re[start:start+half], im[start:start+half]
			yr, yi := re[start+half:start+size], im[start+half:start+size]
			yr, yi, xi = yr[:len(xr)], yi[:len(xr)], xi[:len(xr)]
			twr, twi := twr[:len(xr)], twi[:len(xr)]
			for k := range xr {
				wr, wi := twr[k], twi[k]
				br, bi := yr[k], yi[k]
				tr := br*wr - bi*wi
				ti := br*wi + bi*wr
				ar, ai := xr[k], xi[k]
				xr[k], xi[k] = ar+tr, ai+ti
				yr[k], yi[k] = ar-tr, ai-ti
			}
		}
	}
}

// ForwardReal computes the DFT of the real signal x (length Size()) and
// returns the half spectrum X[0..n/2]. The even/odd samples are packed
// into one complex transform of half the length, which is then
// untangled in place. The result is written into out when its slices
// have capacity for SpectrumLen() bins, otherwise fresh slices are
// allocated. x is left untouched.
func (p *Plan) ForwardReal(x []float64, out Spectrum) Spectrum {
	if len(x) != p.n {
		panic("dsp: plan/input size mismatch")
	}
	m := p.SpectrumLen()
	out.Re, out.Im = fit(out.Re, m), fit(out.Im, m)
	switch p.n {
	case 0:
		return out
	case 1:
		out.Re[0], out.Im[0] = x[0], 0
		return out
	}
	span := fftTimer.Start()
	defer span.Stop()
	h := p.n / 2
	zr, zi := out.Re[:h], out.Im[:h]
	for k, j := range p.bitrev {
		zr[k], zi[k] = x[2*j], x[2*j+1]
	}
	p.butterfly(zr, zi)
	// Untangle: with Z the half-length FFT of the packed signal,
	// Fe[k] = (Z[k]+conj(Z[h-k]))/2 and Fo[k] = (Z[k]-conj(Z[h-k]))/2i
	// are the spectra of the even and odd samples, and
	// X[k] = Fe[k] + exp(-2*pi*i*k/n)*Fo[k]. Bins k and h-k read the
	// same pair of Z values, so each pair is untangled together.
	re0, im0 := zr[0], zi[0]
	out.Re[0], out.Im[0] = re0+im0, 0
	out.Re[h], out.Im[h] = re0-im0, 0
	for k := 1; k <= h/2; k++ {
		ar, ai := zr[k], zi[k]
		br, bi := zr[h-k], zi[h-k]
		out.Re[k], out.Im[k] = p.untangle(k, ar, ai, br, bi)
		out.Re[h-k], out.Im[h-k] = p.untangle(h-k, br, bi, ar, ai)
	}
	return out
}

// untangle returns bin k of the real spectrum from Z[k] = (zr, zi) and
// Z[h-k] = (cr, ci) of the packed half-length transform.
func (p *Plan) untangle(k int, zr, zi, cr, ci float64) (float64, float64) {
	ci = -ci
	fer, fei := (zr+cr)*0.5, (zi+ci)*0.5
	// Fo = (Z[k]-conj(Z[h-k]))/2i
	for_, foi := (zi-ci)*0.5, (cr-zr)*0.5
	wr, wi := p.twRe[k], p.twIm[k]
	return fer + for_*wr - foi*wi, fei + for_*wi + foi*wr
}

// InverseReal reconstructs the real signal (length Size()) from a half
// spectrum produced by ForwardReal, including the 1/N normalization.
// The result is written into out when cap(out) >= Size(), otherwise a
// fresh slice is allocated. spec is left untouched.
func (p *Plan) InverseReal(spec Spectrum, out []float64) []float64 {
	if len(spec.Re) != p.SpectrumLen() || len(spec.Im) != p.SpectrumLen() {
		panic("dsp: plan/spectrum size mismatch")
	}
	out = fit(out, p.n)
	switch p.n {
	case 0:
		return out
	case 1:
		out[0] = spec.Re[0]
		return out
	}
	span := fftTimer.Start()
	defer span.Stop()
	h := p.n / 2
	buf := Acquire(p.n)
	defer Release(buf)
	zr, zi := buf[:h], buf[h:]
	// Re-tangle Z[k] = Fe[k] + i*Fo[k] with Fe = (X[k]+conj(X[h-k]))/2
	// and Fo = (X[k]-conj(X[h-k]))/2 * exp(+2*pi*i*k/n), stored
	// conjugated and bit-reversed so the forward butterfly computes the
	// inverse transform: IDFT(Z) = conj(DFT(conj(Z))).
	for k, j := range p.bitrev {
		ar, ai := spec.Re[j], spec.Im[j]
		br, bi := spec.Re[h-j], -spec.Im[h-j]
		fer, fei := (ar+br)*0.5, (ai+bi)*0.5
		dr, di := (ar-br)*0.5, (ai-bi)*0.5
		wr, wi := p.twRe[j], -p.twIm[j]
		for_, foi := dr*wr-di*wi, dr*wi+di*wr
		zr[k], zi[k] = fer-foi, -(fei + for_)
	}
	p.butterfly(zr, zi)
	// The 1/(n/2) normalization of the half-length inverse is exactly
	// the 1/N the packed pair of real samples per bin needs.
	scale := 1 / float64(h)
	for k := 0; k < h; k++ {
		out[2*k] = zr[k] * scale
		out[2*k+1] = -zi[k] * scale
	}
	return out
}

// fit returns s resliced to length n when its capacity allows,
// otherwise a fresh slice.
func fit(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// BandPower sums spectral power over a band of a half spectrum of an
// nfft-point transform and returns the band magnitude
// sqrt(sum |X[k]|^2) — per-bin magnitudes and BandEnergy fused into one
// pass with no intermediate slice and one square root per band.
func BandPower(spec Spectrum, nfft int, sampleRate float64, b Band) float64 {
	lo := FrequencyBin(b.Low, nfft, sampleRate)
	hi := FrequencyBin(b.High, nfft, sampleRate)
	if hi >= len(spec.Re) {
		hi = len(spec.Re) - 1
	}
	var sum float64
	for k := lo; k <= hi; k++ {
		re, im := spec.Re[k], spec.Im[k]
		sum += re*re + im*im
	}
	return math.Sqrt(sum)
}

// --- Scratch-buffer arena.

// pools maps length -> *sync.Pool of *[]float64. Transform sizes in a
// run form a tiny set (a few window/NFFT sizes), so the map stays
// small.
var pools sync.Map

// Acquire returns a zeroed scratch []float64 of length n from the arena.
// Release it with Release when done.
func Acquire(n int) []float64 {
	arenaAcquire(n)
	poolAny, ok := pools.Load(n)
	if !ok {
		poolAny, _ = pools.LoadOrStore(n, &sync.Pool{})
	}
	if v := poolAny.(*sync.Pool).Get(); v != nil {
		buf := *(v.(*[]float64))
		clear(buf)
		return buf
	}
	return make([]float64, n)
}

// Release returns a buffer obtained from Acquire to the arena. The
// caller must not use the slice afterwards.
func Release(buf []float64) {
	if buf == nil {
		return
	}
	arenaRelease(len(buf))
	if poolAny, ok := pools.Load(len(buf)); ok {
		poolAny.(*sync.Pool).Put(&buf)
	}
}

// AcquireSpectrum returns a zeroed scratch half spectrum of m bins from
// the arena. Release it with ReleaseSpectrum when done.
func AcquireSpectrum(m int) Spectrum {
	return Spectrum{Re: Acquire(m), Im: Acquire(m)}
}

// ReleaseSpectrum returns a spectrum obtained from AcquireSpectrum to
// the arena.
func ReleaseSpectrum(s Spectrum) {
	Release(s.Re)
	Release(s.Im)
}

// --- Arena byte accounting.
//
// Every Acquire/Release pair adjusts the in-use byte count, exposed as
// obs gauges so a serving process (or a bench run) can watch its
// scratch-allocation budget: dsp.arena.in_use_bytes is the live
// balance, dsp.arena.peak_bytes the high-water mark since start. The
// counts are process-wide — with per-size sync.Pools the peak bounds
// what a session mix can pin.

var (
	arenaInUse      atomic.Int64
	arenaPeak       atomic.Int64
	arenaInUseGauge = obs.Default.Gauge("dsp.arena.in_use_bytes")
	arenaPeakGauge  = obs.Default.Gauge("dsp.arena.peak_bytes")
)

// arenaAcquire and arenaRelease account n float64 elements.
func arenaAcquire(n int) {
	v := arenaInUse.Add(int64(8 * n))
	arenaInUseGauge.Set(float64(v))
	for {
		peak := arenaPeak.Load()
		if v <= peak {
			return
		}
		if arenaPeak.CompareAndSwap(peak, v) {
			arenaPeakGauge.Set(float64(v))
			return
		}
	}
}

func arenaRelease(n int) {
	v := arenaInUse.Add(-int64(8 * n))
	arenaInUseGauge.Set(float64(v))
}

// ArenaInUseBytes returns the live scratch-arena byte balance.
func ArenaInUseBytes() int64 { return arenaInUse.Load() }

// ArenaPeakBytes returns the scratch-arena high-water mark.
func ArenaPeakBytes() int64 { return arenaPeak.Load() }

// --- Cached analysis windows.

// hannCache maps length -> shared []float64 Hann table.
var hannCache sync.Map

// CachedHann returns the shared Hann window table of length n. The
// slice is cached and must be treated as read-only; use Hann for a
// private copy.
func CachedHann(n int) []float64 {
	if w, ok := hannCache.Load(n); ok {
		return w.([]float64)
	}
	actual, _ := hannCache.LoadOrStore(n, Hann(n))
	return actual.([]float64)
}
