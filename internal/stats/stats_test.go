package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Unbiased variance of this classic set is 32/7.
	if got, want := Variance(x), 32.0/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(x); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

// TestStdDevHugeSamples requires a representable spread of finite
// samples to come out finite even where their squared deviations
// overflow, and an infinite sample to give an infinite spread.
func TestStdDevHugeSamples(t *testing.T) {
	x := []float64{1e200, -1e200, 1e200, -1e200}
	want := 1e200 * StdDev([]float64{1, -1, 1, -1})
	if got := StdDev(x); math.Abs(got-want) > 1e-12*want {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if got := StdDev([]float64{math.MaxFloat64, math.MaxFloat64}); got != 0 {
		t.Errorf("StdDev of equal huge samples = %v, want 0", got)
	}
	if got := StdDev([]float64{1, math.Inf(1)}); !math.IsInf(got, 1) && !math.IsNaN(got) {
		t.Errorf("StdDev with an infinite sample = %v, want non-finite", got)
	}
}

func TestFitNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 20000)
	for i := range x {
		x[i] = 3 + 2*rng.NormFloat64()
	}
	n, err := FitNormal(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.Mu-3) > 0.05 || math.Abs(n.Sigma-2) > 0.05 {
		t.Errorf("fit = %+v, want mu=3 sigma=2", n)
	}
	if _, err := FitNormal([]float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("single sample err = %v", err)
	}
	// Constant data: sigma must stay positive so CDF remains usable.
	c, err := FitNormal([]float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.Sigma <= 0 {
		t.Errorf("degenerate sigma = %v", c.Sigma)
	}
}

func TestNormalCDF(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	tests := []struct {
		v, want float64
	}{
		{0, 0.5},
		{1.96, 0.975},
		{-1.96, 0.025},
	}
	for _, tt := range tests {
		if got := n.CDF(tt.v); math.Abs(got-tt.want) > 1e-3 {
			t.Errorf("CDF(%v) = %v, want %v", tt.v, got, tt.want)
		}
	}
}

func TestNormalPDFIntegratesToOne(t *testing.T) {
	n := Normal{Mu: 1, Sigma: 0.5}
	sum := 0.0
	const dx = 0.001
	for v := -4.0; v <= 6.0; v += dx {
		sum += n.PDF(v) * dx
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("PDF integral = %v, want 1", sum)
	}
}

func TestKSTestAcceptsMatchingDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rejections := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, 200)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		r, err := KSTestNormal(x, Normal{Mu: 0, Sigma: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.Reject(0.01) {
			rejections++
		}
	}
	// At alpha=0.01, expect about 0.5 false rejections over 50 trials.
	if rejections > 5 {
		t.Errorf("%d/%d rejections of matching distribution at alpha=0.01", rejections, trials)
	}
}

func TestKSTestRejectsShiftedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tests := []struct {
		name      string
		transform func(float64) float64
	}{
		{"mean shift", func(v float64) float64 { return v + 2 }},
		{"scale up", func(v float64) float64 { return v * 3 }},
		{"heavy tail", func(v float64) float64 { return v * v * v }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := make([]float64, 200)
			for i := range x {
				x[i] = tt.transform(rng.NormFloat64())
			}
			r, err := KSTestNormal(x, Normal{Mu: 0, Sigma: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Reject(0.01) {
				t.Errorf("failed to reject: stat=%v p=%v", r.Statistic, r.PValue)
			}
		})
	}
}

func TestKSTestEmpty(t *testing.T) {
	if _, err := KSTestNormal(nil, Normal{Sigma: 1}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v, want ErrInsufficientData", err)
	}
}

// Property: KS statistic is within [0, 1] and p-value within [0, 1].
func TestKSBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 10+rng.Intn(100))
		for i := range x {
			x[i] = rng.NormFloat64() * 5
		}
		r, err := KSTestNormal(x, Normal{Mu: 0, Sigma: 1})
		if err != nil {
			return false
		}
		return r.Statistic >= 0 && r.Statistic <= 1 && r.PValue >= 0 && r.PValue <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTrimOutliers(t *testing.T) {
	x := []float64{1, 1.1, 0.9, 1.05, 0.95, 50}
	out := TrimOutliers(x, 2)
	for _, v := range out {
		if v == 50 {
			t.Error("outlier survived trimming")
		}
	}
	if len(out) != 5 {
		t.Errorf("trimmed length = %d, want 5", len(out))
	}
	// Small inputs pass through.
	small := TrimOutliers([]float64{1, 2}, 1)
	if len(small) != 2 {
		t.Errorf("small input trimmed: %v", small)
	}
}

func TestMaxQuantile(t *testing.T) {
	x := []float64{3, 1, 4, 1, 5}
	if got := Max(x); got != 5 {
		t.Errorf("Max = %v", got)
	}
	if got := Max(nil); got != 0 {
		t.Errorf("Max(nil) = %v", got)
	}
	if got := Quantile(x, 0); got != 1 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := Quantile(x, 1); got != 5 {
		t.Errorf("Quantile(1) = %v", got)
	}
	if got := Quantile(x, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v", got)
	}
}

// TestQuantileEdgeCases covers the streaming-triggered inputs: 1-element
// slices, NaN contamination, and all-NaN degenerate input.
func TestQuantileEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		x    []float64
		q    float64
		want float64
	}{
		{"one element mid-quantile", []float64{7}, 0.5, 7},
		{"one element q=0", []float64{7}, 0, 7},
		{"one element q=1", []float64{7}, 1, 7},
		{"NaN ignored low", []float64{nan, 1, 3}, 0, 1},
		{"NaN ignored high", []float64{1, nan, 3}, 1, 3},
		{"NaN ignored median", []float64{1, nan, 3}, 0.5, 2},
		{"NaN single survivor", []float64{nan, 4, nan}, 0.5, 4},
		{"all NaN", []float64{nan, nan}, 0.5, 0},
		{"empty", nil, 0.5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Quantile(tc.x, tc.q)
			if math.IsNaN(got) || math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Quantile(%v, %v) = %v, want %v", tc.x, tc.q, got, tc.want)
			}
		})
	}
}

// TestQuantileIgnoresInf is the regression test for the ±Inf hole: NaN
// was filtered but an infinite sample survived into the sort, where it
// poisons every interpolated quantile (lo*(1-f) + Inf*f = ±Inf), and
// through Quantile every calibrated detection threshold. Non-finite
// samples must all be treated alike: skipped.
func TestQuantileIgnoresInf(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		x    []float64
		q    float64
		want float64
	}{
		{"+Inf ignored at q=1", []float64{1, 3, inf}, 1, 3},
		{"+Inf ignored interpolating", []float64{1, 3, inf}, 0.75, 2.5},
		{"-Inf ignored at q=0", []float64{-inf, 1, 3}, 0, 1},
		{"-Inf ignored interpolating", []float64{-inf, 1, 3}, 0.25, 1.5},
		{"mixed Inf and NaN", []float64{inf, math.NaN(), 5, -inf}, 0.5, 5},
		{"all non-finite", []float64{inf, -inf, math.NaN()}, 0.5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Quantile(tc.x, tc.q)
			if math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Quantile(%v, %v) = %v, want %v", tc.x, tc.q, got, tc.want)
			}
		})
	}
}

// TestRunningMeanIgnoresInf pins the same hole in the streaming monitor:
// one Inf sample would stick in the running mean forever (Inf enters
// both the cumulative and exponential recursions and never washes out),
// permanently alarming the GPS error monitor.
func TestRunningMeanIgnoresInf(t *testing.T) {
	inf := math.Inf(1)
	for _, alpha := range []float64{0, 0.5} {
		r := RunningMean{Alpha: alpha}
		r.Add(2)
		r.Add(inf)
		r.Add(-inf)
		if got := r.Mean(); got != 2 {
			t.Errorf("alpha=%v: Mean after Inf = %v, want 2 (Inf ignored)", alpha, got)
		}
		if got := r.Count(); got != 1 {
			t.Errorf("alpha=%v: Count after Inf = %d, want 1", alpha, got)
		}
		// The monitor must keep tracking finite samples afterwards.
		r.Add(4)
		if got := r.Mean(); got != 3 {
			t.Errorf("alpha=%v: Mean after recovery = %v, want 3", alpha, got)
		}
	}
}

// TestRunningMeanEdgeCases covers NaN rejection and Add-after-Reset for
// both the cumulative and exponential variants.
func TestRunningMeanEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name      string
		alpha     float64
		feed      []float64
		reset     bool // Reset between the two feeds
		feed2     []float64
		wantMean  float64
		wantCount int
	}{
		{"NaN ignored cumulative", 0, []float64{2, nan, 4}, false, nil, 3, 2},
		{"NaN ignored exponential", 0.5, []float64{2, nan}, false, nil, 2, 1},
		{"NaN first sample", 0.5, []float64{nan, 6}, false, nil, 6, 1},
		{"all NaN", 0, []float64{nan, nan}, false, nil, 0, 0},
		{"add after reset cumulative", 0, []float64{100, 200}, true, []float64{4, 6}, 5, 2},
		{"add after reset exponential reseeds", 0.5, []float64{100}, true, []float64{8}, 8, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := RunningMean{Alpha: tc.alpha}
			for _, v := range tc.feed {
				r.Add(v)
			}
			if tc.reset {
				r.Reset()
			}
			for _, v := range tc.feed2 {
				r.Add(v)
			}
			if got := r.Mean(); math.IsNaN(got) || math.Abs(got-tc.wantMean) > 1e-12 {
				t.Errorf("Mean = %v, want %v", got, tc.wantMean)
			}
			if got := r.Count(); got != tc.wantCount {
				t.Errorf("Count = %d, want %d", got, tc.wantCount)
			}
		})
	}
}

func TestRunningMeanCumulative(t *testing.T) {
	var r RunningMean
	for i := 1; i <= 10; i++ {
		r.Add(float64(i))
	}
	if got := r.Mean(); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("cumulative mean = %v, want 5.5", got)
	}
	if r.Count() != 10 {
		t.Errorf("Count = %d", r.Count())
	}
	r.Reset()
	if r.Mean() != 0 || r.Count() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestRunningMeanExponential(t *testing.T) {
	r := RunningMean{Alpha: 0.5}
	r.Add(0)
	r.Add(10) // 0 + 0.5*(10-0) = 5
	if got := r.Mean(); got != 5 {
		t.Errorf("exp mean = %v, want 5", got)
	}
	// Converges toward a constant input.
	for i := 0; i < 50; i++ {
		r.Add(3)
	}
	if math.Abs(r.Mean()-3) > 1e-6 {
		t.Errorf("exp mean after constant stream = %v, want 3", r.Mean())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(-1, 1, 4)
	for _, v := range []float64{-0.9, -0.1, 0.1, 0.9, 5, -5} {
		h.Add(v)
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d", h.Total())
	}
	// Clamped values land in edge bins.
	if h.Counts[0] != 2 || h.Counts[3] != 2 {
		t.Errorf("edge bins = %v", h.Counts)
	}
	if got := h.BinCenter(0); math.Abs(got-(-0.75)) > 1e-12 {
		t.Errorf("BinCenter(0) = %v", got)
	}
	// Density integrates to 1.
	var integral float64
	w := 0.5
	for i := range h.Counts {
		integral += h.Density(i) * w
	}
	if math.Abs(integral-1) > 1e-12 {
		t.Errorf("density integral = %v", integral)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram(1, 1, 0)
	h.Add(1)
	if h.Total() != 1 {
		t.Error("degenerate histogram unusable")
	}
	empty := NewHistogram(0, 1, 2)
	if empty.Density(0) != 0 {
		t.Error("empty density != 0")
	}
}

func TestConfusionCounts(t *testing.T) {
	var c ConfusionCounts
	// 19 attacks: 15 detected; 30 benign: 7 alerted (Tab. II audio-only).
	for i := 0; i < 19; i++ {
		c.Record(true, i < 15)
	}
	for i := 0; i < 30; i++ {
		c.Record(false, i < 7)
	}
	if math.Abs(c.TPR()-15.0/19) > 1e-12 {
		t.Errorf("TPR = %v", c.TPR())
	}
	if math.Abs(c.FPR()-7.0/30) > 1e-12 {
		t.Errorf("FPR = %v", c.FPR())
	}
	var empty ConfusionCounts
	if empty.TPR() != 0 || empty.FPR() != 0 {
		t.Error("empty counts should give 0 rates")
	}
}

func TestROCAndAUC(t *testing.T) {
	// Perfect separation: all attack scores above all benign scores.
	benign := []float64{0.1, 0.2, 0.3}
	attack := []float64{0.7, 0.8, 0.9}
	curve := ROC(benign, attack)
	if len(curve) == 0 {
		t.Fatal("empty curve")
	}
	if got := AUC(curve); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("perfect AUC = %v, want 1", got)
	}
	// FPR non-decreasing along the curve.
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR < curve[i-1].FPR {
			t.Fatalf("FPR decreased at %d", i)
		}
	}
	// Fully overlapping scores: AUC ~ 0.5.
	same := []float64{1, 2, 3, 4}
	curve = ROC(same, same)
	if got := AUC(curve); math.Abs(got-0.5) > 0.1 {
		t.Errorf("chance AUC = %v, want ~0.5", got)
	}
	if ROC(nil, nil) != nil {
		t.Error("empty ROC should be nil")
	}
}

// TestKSMergedRunsBitwise checks RunMerger and KSTestNormalSorted
// against KSTestNormal on the concatenated pool: the merge must yield
// sort.Float64s order (duplicates, both infinities and NaN, which sorts
// first) and the statistic must match bit for bit. One merger is
// reused across pools of different shapes.
func TestKSMergedRunsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := Normal{Mu: 0.1, Sigma: 1.3}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 1}
	var r RunMerger
	for trial := 0; trial < 200; trial++ {
		runs := make([][]float64, 1+rng.Intn(9))
		var pool []float64
		for i := range runs {
			run := make([]float64, rng.Intn(40))
			for j := range run {
				switch rng.Intn(8) {
				case 0:
					run[j] = specials[rng.Intn(len(specials))]
				case 1:
					run[j] = float64(rng.Intn(3)) // duplicates
				default:
					run[j] = rng.NormFloat64()
				}
			}
			pool = append(pool, run...)
			sort.Float64s(run)
			runs[i] = run
		}
		r.Reset()
		for _, run := range runs {
			r.Add(run)
		}
		merged := r.Merged()
		want := append([]float64(nil), pool...)
		sort.Float64s(want)
		if len(merged) != len(want) {
			t.Fatalf("trial %d: merged %d values, want %d", trial, len(merged), len(want))
		}
		for i := range want {
			if merged[i] != want[i] && !(math.IsNaN(merged[i]) && math.IsNaN(want[i])) {
				t.Fatalf("trial %d: merged[%d] = %v, want %v", trial, i, merged[i], want[i])
			}
		}
		got, gotErr := KSTestNormalSorted(merged, ref)
		exp, expErr := KSTestNormal(pool, ref)
		if (gotErr == nil) != (expErr == nil) {
			t.Fatalf("trial %d: error %v, want %v", trial, gotErr, expErr)
		}
		if math.Float64bits(got.Statistic) != math.Float64bits(exp.Statistic) ||
			math.Float64bits(got.PValue) != math.Float64bits(exp.PValue) || got.N != exp.N {
			t.Fatalf("trial %d: merged-run KS %+v, want %+v", trial, got, exp)
		}
	}
}
