package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// A percentile with fewer samples past it describes a handful of
// outliers, not the distribution.
const minBeyond = 10

// tailLadder lists the tail percentiles a timing may report, lowest
// first.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// tailRank returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, and false when n is too small
// for even the lowest one.
func tailRank(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty slice). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the median of xs (the mean of the two middle values for
// an even count; 0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// maximum returns the largest of xs (0 for an empty slice).
func maximum(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summary is a timing distribution as the benchmark reports it: the
// sample count, the median, and the highest tail percentile that still
// has minBeyond samples past it.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail_pct,omitempty"`
	TailAt float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), P50: median(xs)}
	if p, ok := tailRank(len(xs)); ok {
		s.Tail, s.TailAt = p, percentile(xs, p)
	}
	return s
}
