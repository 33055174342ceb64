// Package stats holds the order statistics the benchmark and its A/B
// comparison tool report.
package stats

import (
	"math"
	"slices"
)

// Median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), which
// the benchmark's acceptance check uses, so spreads printed here match
// it digit for digit. It needs at least two values.
func Quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), true
}

// Percentile returns the nearest-rank q-quantile of xs (0 < q < 1): the
// smallest value with at least a share q of the samples at or below it.
// 0 for an empty slice.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[Rank(len(s), q)]
}

// Rank is the 0-based index of the nearest-rank q-quantile of n sorted
// samples.
func Rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(r, n-1))
}

// Beyond counts the samples strictly above the nearest-rank q-quantile
// of n samples. A percentile is worth reporting as such only when at
// least ten samples lie beyond it.
func Beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - Rank(n, q)
}
