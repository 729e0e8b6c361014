// Package rng provides deterministic, splittable pseudo-random number
// streams for the QLEC simulator.
//
// Reproducibility is a first-class requirement: every stochastic component
// of the simulation (node placement, DEEC threshold draws, Poisson packet
// generation, link loss, dataset synthesis) draws from its own named
// stream, derived from a master seed. Two runs with the same seed and
// configuration are bit-identical regardless of the order in which
// components consume randomness.
//
// The generator is xoshiro256** (Blackman & Vigna, 2018) seeded through
// SplitMix64, the combination recommended by the xoshiro authors. Both are
// implemented here directly so the package has no dependency on math/rand
// internals and the sequence is stable across Go releases.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is a tiny 64-bit PRNG used to derive seeds. It is also the
// recommended seeder for xoshiro generators because it diffuses low-entropy
// seeds (such as small integers) into well-distributed state.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic random stream based on xoshiro256**.
// It is NOT safe for concurrent use; give each goroutine its own Stream
// (see Split).
type Stream struct {
	s0, s1, s2, s3 uint64
	// spare Gaussian value from the Marsaglia polar method.
	hasGauss bool
	gauss    float64
}

// New returns a Stream seeded from seed via SplitMix64.
func New(seed uint64) *Stream {
	sm := NewSplitMix64(seed)
	st := &Stream{s0: sm.Next(), s1: sm.Next(), s2: sm.Next(), s3: sm.Next()}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if st.s0|st.s1|st.s2|st.s3 == 0 {
		st.s0 = 0x9e3779b97f4a7c15
	}
	return st
}

// NewNamed derives a stream from a master seed and a component name, so
// that independent simulator components get decorrelated streams that do
// not depend on initialization order.
func NewNamed(seed uint64, name string) *Stream {
	h := fnv64a(name)
	// Mix the name hash into the seed through SplitMix64 twice to avoid
	// linear cancellation between seed and hash.
	sm := NewSplitMix64(seed ^ bits.RotateLeft64(h, 31))
	sm.Next()
	return New(sm.Next() ^ h)
}

// Split derives a child stream keyed by index. Children of distinct
// indices, and the parent after the split, are statistically independent.
// Split does not consume randomness from the parent, so splitting is
// order-insensitive.
func (s *Stream) Split(index uint64) *Stream {
	sm := NewSplitMix64(s.s0 ^ bits.RotateLeft64(s.s2, 17) ^ (index+1)*0x9e3779b97f4a7c15)
	sm.Next()
	return New(sm.Next())
}

func fnv64a(name string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}

// Uint64 returns the next value of the xoshiro256** sequence.
func (s *Stream) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// Uses Lemire's nearly-divisionless bounded rejection method.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn bound must be positive")
	}
	bound := uint64(n)
	x := s.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Range returns a uniform value in [lo, hi). It panics if hi < lo.
func (s *Stream) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Range bounds inverted")
	}
	return lo + (hi-lo)*s.Float64()
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using
// the Marsaglia polar method, caching the spare deviate.
func (s *Stream) NormFloat64() float64 {
	if s.hasGauss {
		s.hasGauss = false
		return s.gauss
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.gauss = v * f
		s.hasGauss = true
		return u * f
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1) by
// inversion. Scale by the desired mean for other rates.
func (s *Stream) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// LogNormal returns a log-normal variate with the given parameters of the
// underlying normal distribution.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Poisson returns a Poisson variate with the given mean, using Knuth's
// multiplication method for small means and the PTRS transformed-rejection
// method cut-over for large means (approximated here by normal sampling,
// adequate for mean > 30 in simulation workloads).
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Normal approximation with continuity correction.
	v := math.Round(mean + math.Sqrt(mean)*s.NormFloat64())
	if v < 0 {
		return 0
	}
	return int(v)
}

// Perm returns a uniformly random permutation of [0, n) via Fisher–Yates.
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided
// swap function (mirrors math/rand.Shuffle).
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
