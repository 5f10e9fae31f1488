package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of vals by linear
// interpolation between order statistics; 0 for an empty slice. vals is not
// modified.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// highPercentile returns the highest percentile, capped at want, that still
// has tailSamples samples beyond it, together with its value. With fewer
// than 2*tailSamples samples it degrades to the median, so the result is
// always a valid statistic of the data rather than a single outlier.
func highPercentile(vals []float64, want float64) (p, v float64) {
	n := len(vals)
	p = want
	if n > 0 {
		if most := 1 - float64(tailSamples)/float64(n); most < p {
			p = most
		}
	}
	if p < 0.5 {
		p = 0.5
	}
	return p, percentile(vals, p)
}

// quartileSpread is the contract's steadiness measure: the distance between
// the first and third quartile as a share of the median, with the quartiles
// computed as Python's statistics.quantiles(vals, n=4) does (exclusive
// method). It needs at least two values; fewer give 0.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		// exclusive method: position i*(n+1)/4 in 1-based order statistics
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / m)
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
