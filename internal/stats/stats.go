// Package stats provides the measurement utilities used throughout the CO-MAP
// evaluation harness: streaming moments, empirical CDFs, percentiles and
// goodput accounting.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoSamples is returned by queries on empty sample sets.
var ErrNoSamples = errors.New("stats: no samples")

// Online accumulates streaming mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		o.min = math.Min(o.min, x)
		o.max = math.Max(o.max, x)
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations seen so far.
func (o *Online) N() int { return o.n }

// Mean returns the sample mean, or 0 with no samples.
func (o *Online) Mean() float64 { return o.mean }

// Min returns the smallest observation, or 0 with no samples.
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation, or 0 with no samples.
func (o *Online) Max() float64 { return o.max }

// Variance returns the unbiased sample variance (n-1 denominator). It returns
// 0 for fewer than two samples.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// ECDF is an empirical cumulative distribution function over a sample set.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the given samples. The input slice is copied.
func NewECDF(samples []float64) *ECDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the number of samples.
func (e *ECDF) N() int { return len(e.sorted) }

// Quantile returns the q-th quantile (q in [0,1]) using the nearest-rank
// method. It returns an error for an empty sample set or q outside [0,1].
func (e *ECDF) Quantile(q float64) (float64, error) {
	if len(e.sorted) == 0 {
		return 0, ErrNoSamples
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of range")
	}
	if q == 0 {
		return e.sorted[0], nil
	}
	rank := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(e.sorted) {
		rank = len(e.sorted) - 1
	}
	return e.sorted[rank], nil
}

// Mean returns the sample mean of the underlying data.
func (e *ECDF) Mean() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// Points returns (x, F(x)) pairs suitable for plotting: one step per sample.
func (e *ECDF) Points() []CDFPoint {
	pts := make([]CDFPoint, len(e.sorted))
	for i, x := range e.sorted {
		pts[i] = CDFPoint{X: x, F: float64(i+1) / float64(len(e.sorted))}
	}
	return pts
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64 // sample value
	F float64 // cumulative probability at X
}

// Histogram counts samples into fixed-width bins over [Lo, Hi). Samples
// outside the range are counted in Under/Over.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
	// NaN counts rejected not-a-number samples, which belong in no bin.
	NaN   int
	width float64
}

// NewHistogram creates a histogram with the given number of bins over
// [lo, hi). It panics if bins <= 0 or hi <= lo, which indicates programmer
// error in experiment setup.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins), width: (hi - lo) / float64(bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	switch {
	case math.IsNaN(x):
		// NaN compares false against both bounds and would index with an
		// undefined int conversion below.
		h.NaN++
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / h.width)
		if i >= len(h.Counts) { // guard float rounding at the top edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Mean of a float64 slice; returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RelativeGain returns (b-a)/a, the fractional improvement of b over a.
// It returns 0 when a == 0 to keep experiment reports finite.
func RelativeGain(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}
