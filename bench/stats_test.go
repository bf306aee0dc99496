package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{
		{0, 10},
		{0.5, 30},
		{1, 50},
		{0.25, 20},
		// h = 0.99·4 = 3.96: 40 + 0.96·(50-40).
		{0.99, 49.6},
		// h = 0.1·4 = 0.4: 10 + 0.4·(20-10).
		{0.1, 14},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 50 || xs[1] != 10 {
		t.Errorf("percentile reordered its argument: %v", xs)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its argument: %v", xs)
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
		{[]float64{1, 2, 3}, 1, 2, 3},
		// quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		// quantiles([2,4], n=4) == [1.5, 3.0, 4.5]
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if got := iqr(c.xs); !near(got, c.q3-c.q1) {
			t.Errorf("iqr(%v) = %v, want %v", c.xs, got, c.q3-c.q1)
		}
	}
	if got := iqr([]float64{4}); got != 0 {
		t.Errorf("iqr of one value = %v, want 0", got)
	}
}
