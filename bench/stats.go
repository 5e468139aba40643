package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p90 needs 100 samples, a p99 needs 1000.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie beyond it; callers must not report a
// percentile the sample does not support.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the
// exclusive method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0]
	}
	// The integer arithmetic of CPython's implementation, clamping
	// included, so small samples agree to the last digit.
	at := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
