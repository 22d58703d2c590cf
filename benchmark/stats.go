package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of the
// samples: the smallest sample with at least p % of the samples at or
// below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// samplesBeyond is how many samples lie strictly above the nearest-rank
// p-th percentile's rank.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// supportedTail reports whether n samples support reporting the p-th
// percentile: at least ten samples must lie beyond it.
func supportedTail(n int, p float64) bool { return samplesBeyond(n, p) >= 10 }

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(sortedCopy(xs), 50)
}
