package main

import (
	"math"
	"sort"
)

// nearestRank is the 1-based rank of the p-th percentile among n sorted
// samples; the epsilon keeps a product such as 0.95*n, inexact in binary,
// from rounding up past an exact rank.
func nearestRank(n int, p float64) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending-sorted sample, or 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// tailLadder are the percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99}

// tailPercentile returns the highest ladder percentile that still has at
// least ten of the n samples beyond it. With fewer than twenty samples
// nothing qualifies and the median is all the sample supports.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if n-nearestRank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns Q1, the median and Q3 by the exclusive method, the
// one Python's statistics.quantiles(xs, n=4) uses, so -repeat prints the
// spread the acceptance rule is written in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
