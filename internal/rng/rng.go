// Package rng provides a small, deterministic random number generator with
// the distributions the workload generators and predictors need.
//
// Experiments in this repository must be exactly reproducible from a single
// seed, including when work is distributed over goroutines. The standard
// library's math/rand global source is unsuitable for that (shared state,
// seed semantics that changed across Go versions), so this package
// implements a fixed PCG XSL-RR 128/64 generator: the sequence for a given
// seed is frozen by the tests and will never change under us.
//
// A Rand is not safe for concurrent use; use Split to derive independent
// streams for concurrent consumers.
package rng

import "math"

// Rand is a deterministic pseudo-random generator (PCG XSL-RR 128/64).
// The zero value is not usable; construct with New.
type Rand struct {
	hi, lo uint64 // 128-bit state
	// spare holds a cached second Gaussian variate from Box-Muller.
	spare    float64
	hasSpare bool
}

// Multiplier for the 128-bit PCG LCG step (Melissa O'Neill's constant).
const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
	incHi = 6364136223846793005
	incLo = 1442695040888963407
)

// New returns a generator seeded from seed. Distinct seeds give
// independent-looking streams.
func New(seed uint64) *Rand {
	r := &Rand{hi: seed, lo: seed ^ 0x9e3779b97f4a7c15}
	// Scramble the trivially-related initial state.
	for i := 0; i < 6; i++ {
		r.Uint64()
	}
	return r
}

// Split derives a new independent stream from r. The parent stream
// advances, so repeated Splits give distinct children deterministically.
func (r *Rand) Split() *Rand {
	s := r.Uint64()
	t := r.Uint64()
	c := &Rand{hi: s, lo: t | 1}
	for i := 0; i < 4; i++ {
		c.Uint64()
	}
	return c
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	// Advance: state = state*mul + inc (128-bit).
	lo, carry := bits128Mul64Add(r.lo, mulLo, incLo)
	hi := r.hi*mulLo + r.lo*mulHi + carry + incHi
	r.hi, r.lo = hi, lo
	// Output: XSL-RR.
	xored := r.hi ^ r.lo
	rot := uint(r.hi >> 58)
	return xored>>rot | xored<<((64-rot)&63)
}

// bits128Mul64Add computes a*b+c returning (low64, high64-carry-in-part).
// It mirrors math/bits.Mul64/Add64 but is inlined here to keep the package
// dependency-free beyond math.
func bits128Mul64Add(a, b, c uint64) (lo, hi uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a0 * b0
	w0 := t & mask32
	k := t >> 32
	t = a1*b0 + k
	w1 := t & mask32
	w2 := t >> 32
	t = a0*b1 + w1
	k = t >> 32
	hi = a1*b1 + w2 + k
	lo = t<<32 + w0
	lo2 := lo + c
	if lo2 < lo {
		hi++
	}
	return lo2, hi
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform value in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire-style rejection to remove modulo bias.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Gaussian returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *Rand) Gaussian(mean, stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + stddev*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return mean + stddev*u*f
}

// TruncGaussian samples a Gaussian truncated to [lo, hi] by rejection.
// It panics if the interval is empty. The truncation keeps generated WCETs
// and energies strictly positive without distorting the bulk of the
// distribution (the paper's parameters put lo at >4 sigma).
func (r *Rand) TruncGaussian(mean, stddev, lo, hi float64) float64 {
	if lo >= hi {
		panic("rng: TruncGaussian with empty interval")
	}
	for i := 0; i < 1024; i++ {
		x := r.Gaussian(mean, stddev)
		if x >= lo && x <= hi {
			return x
		}
	}
	// Degenerate parameters (interval far in a tail): fall back to uniform
	// so callers never hang.
	return r.Uniform(lo, hi)
}
