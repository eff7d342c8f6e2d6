package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the rank-based (nearest-rank) p-th percentile of xs:
// the smallest sample with at least p% of the samples at or below it.
// It never interpolates, so every reported value was actually observed.
// xs need not be sorted; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)]
}

// rankOf is the zero-based nearest-rank index of percentile p in n
// sorted samples.
func rankOf(n int, p float64) int {
	// The epsilon absorbs float error: 99.9/100 × 10000 must be 9990.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile is the highest percentile in tailPercentiles that
// leaves at least 10 of n samples strictly beyond it — the highest tail
// a run of n samples can state without resting on a handful of
// outliers. 0 when n is below 20 (not even the median qualifies).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-(rankOf(n, p)+1) >= 10 {
			return p
		}
	}
	return 0
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns Q1, median and Q3 with the "exclusive" method of
// Python's statistics.quantiles(xs, n=4), the definition the benchmark's
// acceptance spread (Q3−Q1)/median is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

var inf = math.Inf(1)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps ±Inf and NaN to the largest float64, so a metric stays
// encodable as JSON while still reading as "worse than anything".
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return math.MaxFloat64
	}
	return x
}
