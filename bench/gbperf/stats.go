package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile is the highest quantile of n samples with at least ten
// samples beyond it, and never less than the median.
func tailQuantile(n int) float64 {
	return math.Max(0.5, 1-10/float64(n))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the spreads compare reports match that tool's.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
