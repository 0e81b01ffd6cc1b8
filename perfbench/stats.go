package main

import (
	"math"
	"regexp"
	"sort"
)

// metric is one reported number with its unit, in the shape the result
// line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricName is the grammar every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 over 200 samples rests on two values and says nothing.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, the number of samples it was taken over, and whether
// at least minBeyond samples lie strictly beyond its rank. xs is not
// modified.
func percentile(xs []float64, p float64) (v float64, n int, ok bool) {
	n = len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n, n-rank >= minBeyond
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or NaN for no samples.
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

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method, matching Python's statistics.quantiles(xs, n=4).
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
