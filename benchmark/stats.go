package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..1) of xs by linear
// interpolation between closest ranks — the same rule as Python's
// statistics.quantiles(method="inclusive"), so a reader can re-derive
// the printed numbers from the printed samples. xs need not be sorted.
// An empty input yields NaN: a metric computed from no samples must not
// masquerade as a measurement.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(xs []float64) float64 { return percentile(xs, 0.75) - percentile(xs, 0.25) }
