// Package metrics provides the time-series tooling the experiments use to
// turn raw tracker samples into the paper's reported quantities: max/avg
// summaries with the initialization burst excluded (§6.3), main-iteration
// period detection (Table 3), and processing-burst segmentation (§6.2).
package metrics

import (
	"fmt"
	"math"
)

// Point is one sample of a time series: a value observed at time T
// (virtual seconds).
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series with a name for reporting.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{t, v}) }

// Values returns the sample values in order (a fresh slice).
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// After returns the sub-series with T >= t0, sharing the backing array.
// The paper excludes the data-initialization burst this way (§6.3).
func (s *Series) After(t0 float64) *Series {
	i := 0
	for i < len(s.Points) && s.Points[i].T < t0 {
		i++
	}
	return &Series{Name: s.Name, Points: s.Points[i:]}
}

// Summary aggregates a series.
type Summary struct {
	N    int
	Min  float64
	Max  float64
	Mean float64
	Sum  float64
}

// String formats the summary compactly.
func (m Summary) String() string {
	return fmt.Sprintf("n=%d min=%.2f max=%.2f mean=%.2f", m.N, m.Min, m.Max, m.Mean)
}

// Summarize computes min/max/mean over the series.
// An empty series yields the zero Summary.
func Summarize(s *Series) Summary {
	if s == nil || len(s.Points) == 0 {
		return Summary{}
	}
	m := Summary{N: len(s.Points), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, p := range s.Points {
		m.Sum += p.V
		m.Min = math.Min(m.Min, p.V)
		m.Max = math.Max(m.Max, p.V)
	}
	m.Mean = m.Sum / float64(m.N)
	return m
}

// DetectPeriod estimates the dominant period of a uniformly sampled signal
// using normalized autocorrelation, returning the period in the same time
// unit as dt (the sample spacing). It returns 0 when no credible
// periodicity is found (fewer than two full cycles in the data, or a peak
// correlation below threshold).
//
// Harmonic correction: if the autocorrelation at half the winning lag is
// nearly as strong, the half-lag is preferred, so the estimator reports the
// fundamental rather than a multiple. This mirrors how the paper reads the
// gap between processing bursts off the IWS trace (Table 3).
func DetectPeriod(values []float64, dt float64) float64 {
	return DetectPeriodMin(values, dt, 0)
}

// DetectPeriodMin is DetectPeriod with a lower bound on the period it
// will report. Sampling near the generator's own event granularity can
// create short-lag aliasing peaks; a minimum period excludes them.
func DetectPeriodMin(values []float64, dt, minPeriod float64) float64 {
	n := len(values)
	if n < 8 || dt <= 0 {
		return 0
	}
	minLag := 2
	if minPeriod > 0 {
		if l := int(minPeriod / dt); l > minLag {
			minLag = l
		}
	}
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(n)
	dev := make([]float64, n)
	var energy float64
	for i, v := range values {
		dev[i] = v - mean
		energy += dev[i] * dev[i]
	}
	if energy == 0 {
		return 0 // constant signal has no period
	}
	maxLag := n / 2
	ac := make([]float64, maxLag+1)
	for lag := 1; lag <= maxLag; lag++ {
		var sum float64
		for i := 0; i+lag < n; i++ {
			sum += dev[i] * dev[i+lag]
		}
		// Normalize by the number of terms so long lags are comparable.
		ac[lag] = sum / float64(n-lag) / (energy / float64(n))
	}
	// The fundamental is the first prominent local maximum: harmonics at
	// 2x, 3x, ... the fundamental lag correlate comparably, so taking the
	// global maximum would often report a multiple of the true period.
	const threshold = 0.25
	var global float64
	for lag := minLag; lag < maxLag; lag++ {
		global = math.Max(global, ac[lag])
	}
	if global < threshold {
		return 0
	}
	prominent := math.Max(threshold, 0.6*global)
	for lag := minLag; lag < maxLag; lag++ {
		if ac[lag] >= prominent && ac[lag] >= ac[lag-1] && ac[lag] >= ac[lag+1] {
			// Refine within a small neighbourhood in case the true
			// peak is a sample away from where prominence was met.
			best, bestVal := lag, ac[lag]
			for l := lag + 1; l <= min(maxLag, lag+2); l++ {
				if ac[l] > bestVal {
					best, bestVal = l, ac[l]
				}
			}
			return float64(best) * dt
		}
	}
	return 0
}

// Burst is a contiguous run of samples above a threshold.
type Burst struct {
	Start int // index of first sample in the burst
	End   int // index one past the last sample
	Peak  float64
	Sum   float64
}

// Duration returns the burst length in samples.
func (b Burst) Duration() int { return b.End - b.Start }

// FindBursts segments values into bursts: maximal runs where the value
// exceeds frac times the series maximum. Adjacent bursts separated by
// fewer than minGap samples are merged, which keeps the multi-kernel
// sub-bursts of one Sage iteration (§6.2) as a single processing burst.
func FindBursts(values []float64, frac float64, minGap int) []Burst {
	var peak float64
	for _, v := range values {
		peak = math.Max(peak, v)
	}
	if peak <= 0 {
		return nil
	}
	thr := frac * peak
	var bursts []Burst
	in := false
	var cur Burst
	flush := func(end int) {
		cur.End = end
		bursts = append(bursts, cur)
		in = false
	}
	gap := 0
	for i, v := range values {
		switch {
		case v > thr && !in:
			cur = Burst{Start: i, Peak: v, Sum: v}
			in = true
			gap = 0
		case v > thr && in:
			cur.Peak = math.Max(cur.Peak, v)
			cur.Sum += v
			gap = 0
		case v <= thr && in:
			gap++
			if gap >= minGap {
				flush(i - gap + 1)
			}
		}
	}
	if in {
		flush(len(values) - gap)
	}
	return bursts
}
