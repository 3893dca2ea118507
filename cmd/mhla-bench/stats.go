package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile
// before the benchmark reports it: fewer, and the percentile is one or
// two outliers rather than a tail.
const minTail = 10

// sortedCopy returns the values in ascending order without touching
// the caller's slice.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest rank of the p-th percentile of n
// samples: the smallest rank with at least p% of the samples at or
// below it. p*n is formed before dividing so integer percentiles of
// integer counts stay exact (0.99*1000 is not 990 in floating point).
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of ascending
// values (NaN when there are none). Unlike a floor-index percentile it
// always returns an observed sample and never rounds the rank down.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond counts the samples strictly above the nearest rank of the
// p-th percentile of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailOK reports whether n samples support the p-th percentile: at
// least minTail samples lie beyond it. For p99 that means n >= 1000.
func tailOK(n int, p float64) bool { return beyond(n, p) >= minTail }

// median returns the middle value (the mean of the two middle values
// for an even count), as Python's statistics.median does.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method),
// so spreads computed here match the ones a Python harness computes
// over the same runs. A single value is its own quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartiles as a
// share of the median (0 when the median is 0 and the quartiles agree,
// +Inf when only the median is 0).
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	iqr := q3 - q1
	if q2 == 0 {
		if iqr == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return iqr / math.Abs(q2)
}
