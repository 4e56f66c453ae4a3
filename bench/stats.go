package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending-sorted sample and how many samples lie beyond it. The
// guide's rule — report the highest percentile with at least ten
// samples beyond it — is checked against that second value.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

// median returns the middle of v (mean of the two middles for an even
// count) without reordering v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// geomean is the geometric mean of the positive entries of v; a class
// whose median rounds to zero is clamped to one nanosecond's worth so
// it cannot zero the product.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range v {
		logs += math.Log(math.Max(x, 1e-6))
	}
	return math.Exp(logs / float64(len(v)))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
