package main

import "sort"

// The estimators. Host noise on a deterministic single-threaded
// program is strictly additive, so the minimum over repetitions is the
// steadiest estimate of what the program costs; the median and a high
// percentile say how noisy the host was.

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pctTenBeyond returns the highest percentile of xs that still has at
// least ten samples beyond it, and its value: with n samples that is
// the (n-10)th smallest, the 100*(n-10)/n-th percentile. With ten
// samples or fewer no such percentile exists and it returns the median
// as the 50th.
func pctTenBeyond(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= 10 {
		return median(xs), 50
	}
	return sorted(xs)[n-11], 100 * float64(n-10) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
