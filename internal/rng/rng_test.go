package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedIndependence(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values out of 1000", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("split children collided at step %d", i)
		}
	}
}

func TestSplitDeterminism(t *testing.T) {
	mk := func() []uint64 {
		p := New(99)
		c := p.Split()
		out := make([]uint64, 10)
		for i := range out {
			out[i] = c.Uint64()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split stream not deterministic at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		f := r.Uniform(2, 10)
		if f < 2 || f >= 10 {
			t.Fatalf("Uniform out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	seen := make(map[int]int)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 7; v++ {
		if seen[v] == 0 {
			t.Fatalf("Intn never produced %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestGaussianMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	const mean, std = 40.0, 9.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Gaussian(mean, std)
		sum += x
		sumSq += x * x
	}
	m := sum / n
	v := sumSq/n - m*m
	if math.Abs(m-mean) > 0.2 {
		t.Errorf("sample mean %.3f, want ~%.1f", m, mean)
	}
	if math.Abs(math.Sqrt(v)-std) > 0.2 {
		t.Errorf("sample stddev %.3f, want ~%.1f", math.Sqrt(v), std)
	}
}

func TestTruncGaussianBounds(t *testing.T) {
	r := New(8)
	for i := 0; i < 10000; i++ {
		x := r.TruncGaussian(40, 9, 1, 100)
		if x < 1 || x > 100 {
			t.Fatalf("TruncGaussian out of bounds: %v", x)
		}
	}
}

func TestTruncGaussianDegenerateTail(t *testing.T) {
	r := New(9)
	// Interval 100 sigma away from the mean: rejection will fail, the
	// uniform fallback must still respect the bounds.
	for i := 0; i < 100; i++ {
		x := r.TruncGaussian(0, 1, 100, 101)
		if x < 100 || x > 101 {
			t.Fatalf("fallback out of bounds: %v", x)
		}
	}
}

func TestTruncGaussianPanicsOnEmptyInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty interval")
		}
	}()
	New(1).TruncGaussian(0, 1, 5, 5)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformityChiSquare(t *testing.T) {
	// Coarse chi-square uniformity check over 16 buckets.
	r := New(11)
	const n = 160000
	var buckets [16]int
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*16)]++
	}
	expected := float64(n) / 16
	var chi2 float64
	for _, c := range buckets {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile is ~37.7.
	if chi2 > 37.7 {
		t.Errorf("chi-square %.2f too high for uniformity", chi2)
	}
}

func TestGaussianSpareIsUsed(t *testing.T) {
	// Two consecutive Gaussian draws must consume the Box-Muller pair:
	// drawing 2 then 2 with a fresh peer should match 4 in a row.
	a := New(12)
	b := New(12)
	var av, bv [4]float64
	for i := 0; i < 4; i++ {
		av[i] = a.Gaussian(0, 1)
	}
	bv[0] = b.Gaussian(0, 1)
	bv[1] = b.Gaussian(0, 1)
	bv[2] = b.Gaussian(0, 1)
	bv[3] = b.Gaussian(0, 1)
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("Gaussian stream mismatch at %d", i)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkGaussian(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Gaussian(40, 9)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
