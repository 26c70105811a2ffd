package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentileNs returns the p-th percentile (0 < p <= 100, nearest rank)
// of latency samples in nanoseconds, as microseconds. It sorts ns in
// place and returns NaN when there are no samples.
func percentileNs(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return math.NaN()
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	rank := int(math.Ceil(p / 100 * float64(len(ns))))
	if rank < 1 {
		rank = 1
	}
	return float64(ns[rank-1]) / 1e3
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// so -selfcheck judges spreads the way the acceptance procedure does.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// iqrSpread is (Q3-Q1)/median: the run-to-run spread the bounds in
// BENCHMARK.json are compared against.
func iqrSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if q3 == q1 {
		return 0
	}
	return (q3 - q1) / median(xs)
}

// rangeSpread is (max-min)/median, printed per workload in the noise
// block.
func rangeSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if hi == lo {
		return 0 // also when every value is 0
	}
	den := math.Abs(median(xs))
	if den == 0 {
		den = math.Max(math.Abs(lo), math.Abs(hi)) // keeps the ratio finite
	}
	return (hi - lo) / den
}

// sameTo3 reports whether a and b agree to three significant digits,
// read strictly: they differ by at most one part in a thousand.
func sameTo3(a, b float64) bool {
	return math.Abs(a-b) <= 0.001*math.Max(math.Abs(a), math.Abs(b))
}
