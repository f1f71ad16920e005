package main

import (
	"math"
	"sort"
)

// tailLadder lists the tail percentiles a run may report, highest first.
var tailLadder = []float64{99, 90, 50}

// rank is the nearest-rank position (1-based) of the p-th percentile
// among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest ladder percentile that has at
// least minBeyond of n samples above it.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// median returns the median of xs, leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// failedFrac is the share of attempted units that failed.
func failedFrac(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
