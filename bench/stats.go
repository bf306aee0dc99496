package main

import (
	"math"
	"sort"

	"predrm/internal/metrics"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by
// metrics.Percentile's linear interpolation; NaN when xs is empty, so an
// absent figure cannot pass for a measured 0.
func percentile(xs []float64, p float64) float64 {
	v, err := metrics.Percentile(xs, 100*p)
	if err != nil {
		return math.NaN()
	}
	return v
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first, second and third quartile of xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4)), the rule the
// spread of repeated runs is judged by. One value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// iqr returns the distance between the first and third quartile of xs.
func iqr(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return q3 - q1
}
