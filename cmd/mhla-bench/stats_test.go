package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		values []float64
		p      float64
		want   float64
	}{
		// Hand-computed: rank = ceil(p/100 * n), 1-based.
		{[]float64{15, 20, 35, 40, 50}, 5, 15},   // ceil(0.25) = 1
		{[]float64{15, 20, 35, 40, 50}, 30, 20},  // ceil(1.5) = 2
		{[]float64{15, 20, 35, 40, 50}, 40, 20},  // ceil(2.0) = 2
		{[]float64{15, 20, 35, 40, 50}, 50, 35},  // ceil(2.5) = 3
		{[]float64{15, 20, 35, 40, 50}, 100, 50}, // rank n
		{[]float64{3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, 25, 7},
		{[]float64{3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, 50, 8},
		{[]float64{3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, 75, 15},
		{[]float64{42}, 99, 42},
		// n = 1000: p99 is the 990th value, not the 989th a floor index
		// of 0.99*(n-1) picks, and not 991 from 0.99*1000 rounding up.
		{seq(1000), 99, 990},
		{seq(1001), 99, 991}, // ceil(990.99)
		{seq(200), 99, 198},
		{seq(200), 50, 100},
	}
	for _, c := range cases {
		if got := percentile(c.values, c.p); got != c.want {
			t.Errorf("percentile(%v..., n=%d, p%g) = %g, want %g", c.values[0], len(c.values), c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile(nil) = %g, want NaN", got)
	}
}

func TestTailGate(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{1000, 99, 10, true},
		{999, 99, 9, false}, // rank ceil(989.01) = 990
		{5000, 99, 50, true},
		{200, 99, 2, false},
		{20, 50, 10, true},
		{19, 50, 9, false},
		{0, 99, 0, false},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := tailOK(c.n, c.p); got != c.ok {
			t.Errorf("tailOK(%d, p%g) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python 3: statistics.quantiles(d, n=4) and
	// statistics.median(d).
	cases := []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}, 2.75, 5.5, 8.25},
		{[]float64{1.5, 1.5, 1.5}, 1.5, 1.5, 1.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.values)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g, want %g, %g, %g", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.values); m != c.q2 {
			t.Errorf("median(%v) = %g, want %g", c.values, m, c.q2)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{10, 20, 30, 40, 50}); got != 1 {
		t.Errorf("spread = %g, want (45-15)/30 = 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %g, want 0", got)
	}
	if got := spread([]float64{-1, 0, 1}); !math.IsInf(got, 1) {
		t.Errorf("spread around a zero median = %g, want +Inf", got)
	}
}
