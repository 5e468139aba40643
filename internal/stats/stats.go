// Package stats provides the statistical machinery of SoundBoost's RCA
// decisions: normal-distribution fitting of benign residuals, the
// Kolmogorov-Smirnov test used for IMU attack detection (§III-C1), the
// running-mean error detector used for GPS spoofing detection (§III-C2),
// outlier trimming, and TPR/FPR bookkeeping.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a statistic needs more samples.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the unbiased sample variance (0 for fewer than 2 points).
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x)-1)
}

// StdDev returns the sample standard deviation. When the squared
// deviations of finite samples overflow, it rescales the samples by
// their largest magnitude first, so a spread that is representable
// stays finite.
func StdDev(x []float64) float64 {
	v := Variance(x)
	if !math.IsInf(v, 1) {
		return math.Sqrt(v)
	}
	var scale float64
	for _, xi := range x {
		scale = max(scale, math.Abs(xi))
	}
	if math.IsInf(scale, 1) {
		return v
	}
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = xi / scale
	}
	return scale * math.Sqrt(Variance(y))
}

// Normal is a fitted normal distribution.
type Normal struct {
	Mu    float64
	Sigma float64
}

// FitNormal estimates a Normal from samples. It requires at least two
// samples and a non-degenerate spread.
func FitNormal(x []float64) (Normal, error) {
	if len(x) < 2 {
		return Normal{}, ErrInsufficientData
	}
	n := Normal{Mu: Mean(x), Sigma: StdDev(x)}
	if n.Sigma == 0 {
		n.Sigma = 1e-12
	}
	return n, nil
}

// CDF evaluates the cumulative distribution function at v.
func (n Normal) CDF(v float64) float64 {
	return 0.5 * math.Erfc(-(v-n.Mu)/(n.Sigma*math.Sqrt2))
}

// PDF evaluates the probability density function at v.
func (n Normal) PDF(v float64) float64 {
	z := (v - n.Mu) / n.Sigma
	return math.Exp(-z*z/2) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// ZScore standardises vectors dimension by dimension: (x - Mean) / Std.
// The acoustic model's features and labels and the triage tier's
// features are standardised by it, and saved models store it as is.
type ZScore struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// FitZScore fits the per-dimension mean and population standard
// deviation of xs, which must share one length. A dimension whose
// deviation is below 1e-9 gets Std 1, so constant features pass through
// centred instead of blowing up. No vectors fit the zero ZScore.
func FitZScore(xs [][]float64) ZScore {
	if len(xs) == 0 {
		return ZScore{}
	}
	dim := len(xs[0])
	z := ZScore{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for _, x := range xs {
		for i, v := range x {
			z.Mean[i] += v
		}
	}
	for i := range z.Mean {
		z.Mean[i] /= float64(len(xs))
	}
	for _, x := range xs {
		for i, v := range x {
			d := v - z.Mean[i]
			z.Std[i] += d * d
		}
	}
	for i := range z.Std {
		z.Std[i] = math.Sqrt(z.Std[i] / float64(len(xs)))
		if z.Std[i] < 1e-9 {
			z.Std[i] = 1
		}
	}
	return z
}

// Apply returns x standardised into a fresh slice.
func (z ZScore) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = (v - z.Mean[i]) / z.Std[i]
	}
	return out
}

// KSResult is the outcome of a one-sample Kolmogorov-Smirnov test.
type KSResult struct {
	// Statistic is the maximum CDF deviation D_n.
	Statistic float64
	// PValue approximates P(D > observed) under H0.
	PValue float64
	// N is the sample count.
	N int
}

// Reject reports whether H0 (samples drawn from the reference) is rejected
// at significance level alpha.
func (r KSResult) Reject(alpha float64) bool { return r.PValue < alpha }

// KSTestNormal runs a one-sample KS test of samples against the reference
// normal distribution. This is SoundBoost's IMU attack decision: benign
// residuals follow the fitted benign normal; attack residuals do not.
// samples is left untouched.
func KSTestNormal(samples []float64, ref Normal) (KSResult, error) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return KSTestNormalSorted(sorted, ref)
}

// KSTestNormalSorted is KSTestNormal over samples already in
// sort.Float64s order (ascending, NaN first), as RunMerger.Merged produces
// them; it skips the copy and the sort.
func KSTestNormalSorted(sorted []float64, ref Normal) (KSResult, error) {
	n := len(sorted)
	if n == 0 {
		return KSResult{}, ErrInsufficientData
	}
	d := 0.0
	for i, v := range sorted {
		cdf := ref.CDF(v)
		upper := float64(i+1)/float64(n) - cdf
		lower := cdf - float64(i)/float64(n)
		if upper > d {
			d = upper
		}
		if lower > d {
			d = lower
		}
	}
	return KSResult{Statistic: d, PValue: ksPValue(d, n), N: n}, nil
}

// RunMerger merges ascending runs into one ascending slice, reusing its
// buffers from call to call. It produces sort.Float64s order (NaN
// first) when every run is in that order, so a pool of pre-sorted runs
// need not be sorted again.
type RunMerger struct {
	buf, tmp []float64
	ends     []int // ends[i] is the end of run i in buf
}

// Reset discards the runs added so far.
func (r *RunMerger) Reset() {
	r.buf, r.ends = r.buf[:0], r.ends[:0]
}

// Add appends a copy of run, which must be in sort.Float64s order.
func (r *RunMerger) Add(run []float64) {
	r.buf = append(r.buf, run...)
	r.ends = append(r.ends, len(r.buf))
}

// Merged merges the runs added since Reset pairwise, adjacent runs
// first, and returns the result. The slice is owned by the merger and
// valid until the next Reset.
func (r *RunMerger) Merged() []float64 {
	n := len(r.buf)
	if cap(r.tmp) < n {
		r.tmp = make([]float64, n)
	}
	src, dst := r.buf, r.tmp[:n]
	for len(r.ends) > 1 {
		start, out := 0, 0
		for i := 0; i < len(r.ends); i += 2 {
			end := r.ends[i]
			if i+1 < len(r.ends) {
				end = r.ends[i+1]
				mergeInto(dst[start:end], src[start:r.ends[i]], src[r.ends[i]:end])
			} else {
				copy(dst[start:end], src[start:end])
			}
			r.ends[out] = end
			out++
			start = end
		}
		r.ends = r.ends[:out]
		src, dst = dst, src
	}
	// Keep the merged slice in buf so the next Reset reuses both.
	r.buf, r.tmp = src, dst
	return src
}

// mergeInto merges the ascending runs a and b into dst (len(a)+len(b)),
// taking from a on ties.
func mergeInto(dst, a, b []float64) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && !floatLess(b[j], a[i])) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// floatLess is sort.Float64s's order: ascending, NaN first.
func floatLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// ksPValue evaluates the asymptotic Kolmogorov distribution tail
// Q(lambda) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2) with the
// standard small-sample correction (Stephens).
func ksPValue(d float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	sqrtN := math.Sqrt(float64(n))
	lambda := (sqrtN + 0.12 + 0.11/sqrtN) * d
	if lambda < 1e-3 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	return math.Max(0, math.Min(1, p))
}

// TrimOutliers returns x with values outside k standard deviations of the
// mean removed. The paper trims benign running-mean errors before taking
// their maximum as the GPS detection threshold.
func TrimOutliers(x []float64, k float64) []float64 {
	if len(x) < 3 {
		return append([]float64(nil), x...)
	}
	m := Mean(x)
	s := StdDev(x)
	out := make([]float64, 0, len(x))
	for _, v := range x {
		if math.Abs(v-m) <= k*s {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return append([]float64(nil), x...)
	}
	return out
}

// Max returns the maximum of x (0 for empty input).
func Max(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of x by linear
// interpolation of the sorted samples. Non-finite samples (NaN, ±Inf)
// are ignored — a lossy telemetry stream must not be able to poison a
// calibrated threshold, and a single +Inf would otherwise bleed into
// every interpolated quantile, not just q=1 — and a single-element input
// returns that element for every q. Returns 0 when no finite samples
// remain.
func Quantile(x []float64, q float64) float64 {
	sorted := make([]float64, 0, len(x))
	for _, v := range x {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			sorted = append(sorted, v)
		}
	}
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RunningMean tracks the running mean of a stream with an optional
// exponential forgetting factor; SoundBoost monitors the running mean of
// GPS-vs-estimate velocity error and alarms when it exceeds a threshold.
type RunningMean struct {
	// Alpha in (0,1] is the exponential weight of the newest sample;
	// 0 means a plain cumulative mean.
	Alpha float64

	mean  float64
	count int
}

// Add feeds a sample and returns the updated mean. Non-finite samples
// (NaN, ±Inf) are ignored (returning the current mean unchanged): one
// corrupt telemetry row must not poison the monitor for the rest of the
// stream — an Inf would stick in the mean forever, which NaN-only
// filtering missed. After Reset the next sample re-seeds the mean
// exactly as the first ever sample did.
func (r *RunningMean) Add(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return r.mean
	}
	r.count++
	if r.Alpha > 0 {
		if r.count == 1 {
			r.mean = v
		} else {
			r.mean += r.Alpha * (v - r.mean)
		}
	} else {
		r.mean += (v - r.mean) / float64(r.count)
	}
	return r.mean
}

// Mean returns the current mean.
func (r *RunningMean) Mean() float64 { return r.mean }

// Count returns the number of samples seen.
func (r *RunningMean) Count() int { return r.count }

// Reset clears the accumulator.
func (r *RunningMean) Reset() { r.mean = 0; r.count = 0 }

// Histogram bins samples uniformly over [lo, hi]; used to regenerate the
// residual-distribution figures (Fig. 6).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram builds a histogram with the given bin count.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records a sample (values outside the range clamp to the edge bins).
func (h *Histogram) Add(v float64) {
	bins := len(h.Counts)
	idx := int(float64(bins) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Density returns the normalized density of bin i (integrates to ~1).
func (h *Histogram) Density(i int) float64 {
	if h.total == 0 {
		return 0
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return float64(h.Counts[i]) / (float64(h.total) * w)
}

// ConfusionCounts accumulates binary detection outcomes.
type ConfusionCounts struct {
	TP, FP, TN, FN int
}

// Record adds one labelled outcome.
func (c *ConfusionCounts) Record(attack, alerted bool) {
	switch {
	case attack && alerted:
		c.TP++
	case attack && !alerted:
		c.FN++
	case !attack && alerted:
		c.FP++
	default:
		c.TN++
	}
}

// TPR returns the true positive rate (0 when no positives were seen).
func (c ConfusionCounts) TPR() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FPR returns the false positive rate (0 when no negatives were seen).
func (c ConfusionCounts) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// ROCPoint is one operating point of a score-threshold detector.
type ROCPoint struct {
	// Threshold is the decision level (alarm when score > Threshold).
	Threshold float64
	// TPR and FPR are the rates at this threshold.
	TPR float64
	FPR float64
}

// ROC sweeps thresholds over the union of benign and attack peak scores and
// returns the operating curve, sorted by descending threshold (so FPR is
// non-decreasing along the slice). It lets detector calibrations be judged
// against the whole trade-off rather than a single point.
func ROC(benignScores, attackScores []float64) []ROCPoint {
	if len(benignScores) == 0 && len(attackScores) == 0 {
		return nil
	}
	all := make([]float64, 0, len(benignScores)+len(attackScores))
	all = append(all, benignScores...)
	all = append(all, attackScores...)
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	thresholds := append([]float64{math.Inf(1)}, all...)
	thresholds = append(thresholds, math.Inf(-1)) // final point: alarm on everything
	var out []ROCPoint
	prev := math.NaN()
	for _, thr := range thresholds {
		if thr == prev {
			continue
		}
		prev = thr
		var c ConfusionCounts
		for _, s := range attackScores {
			c.Record(true, s > thr)
		}
		for _, s := range benignScores {
			c.Record(false, s > thr)
		}
		out = append(out, ROCPoint{Threshold: thr, TPR: c.TPR(), FPR: c.FPR()})
	}
	return out
}

// AUC integrates the ROC curve by the trapezoid rule.
func AUC(curve []ROCPoint) float64 {
	if len(curve) < 2 {
		return 0
	}
	auc := 0.0
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		auc += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return auc
}
