// Package xrand provides a small, deterministic pseudo-random number
// generator and the distribution samplers used by the rumor-spreading
// simulators.
//
// The generator is xoshiro256** seeded via SplitMix64. It is not
// cryptographically secure; it is fast, has a 256-bit state and passes the
// statistical tests relevant for Monte-Carlo simulation. Every simulator in
// this repository takes an explicit *xrand.RNG so experiments are
// reproducible from a single seed.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// The zero value is not valid; use New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded deterministically from seed using SplitMix64,
// as recommended by the xoshiro authors.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed re-initializes the generator in place exactly as New(seed) would,
// without allocating. It is the recycling form used by the Monte-Carlo
// machinery to derive per-repetition streams into reusable RNG values.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := 0; i < 4; i++ {
		sm, r.s[i] = splitMix64(sm)
	}
	// Avoid the all-zero state (probability ~2^-256, but cheap to guard).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// splitMix64 advances the SplitMix64 state and returns (nextState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return state, z
}

// Split returns a new generator deterministically derived from r and the
// stream label. Distinct labels yield statistically independent streams, so
// repetitions of an experiment can run in parallel with reproducible results.
// Split advances r by exactly one Uint64 draw.
func (r *RNG) Split(label uint64) *RNG {
	return New(r.Uint64() ^ (label*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909))
}

// SplitInto derives the same generator Split(label) would return into dst,
// without allocating. Like Split it advances r by exactly one Uint64 draw, so
// Split and SplitInto are interchangeable draw for draw.
func (r *RNG) SplitInto(label uint64, dst *RNG) {
	dst.Seed(r.Uint64() ^ (label*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// nearly-divisionless method with rejection to remove modulo bias.
func (r *RNG) boundedUint64(bound uint64) uint64 {
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo < bound {
			threshold := -bound % bound
			if lo < threshold {
				continue
			}
		}
		return hi
	}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp called with non-positive rate")
	}
	// -log(U) with U in (0,1]. 1-Float64() is in (0,1].
	return -math.Log(1-r.Float64()) / rate
}

// Poisson returns a Poisson-distributed value with the given mean.
// For small means it uses Knuth's multiplication method; for large means it
// uses the PTRS transformed-rejection method of Hörmann (1993), which runs in
// O(1) expected time for any mean.
func (r *RNG) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		return r.poissonKnuth(mean)
	default:
		return r.poissonPTRS(mean)
	}
}

func (r *RNG) poissonKnuth(mean float64) int {
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func (r *RNG) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(mean)-mean-lg {
			return int(k)
		}
	}
}

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli(p) trials (support {0, 1, 2, ...}).
// It panics if p is not in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric called with p outside (0,1]")
	}
	if p == 1 {
		return 0
	}
	u := 1 - r.Float64() // in (0,1]
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a uniformly random permutation of [0, len(p)),
// consuming exactly the same random stream as Perm(len(p)). It is the
// allocation-free form used by generators that rebuild graphs every step.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
}

// Shuffle permutes the slice in place (Fisher–Yates).
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample called with k outside [0, n]")
	}
	if k == 0 {
		return nil
	}
	// Partial Fisher–Yates over an index map keeps this O(k) memory when k≪n
	// is not needed here; experiments use modest n so the simple O(n) variant
	// is clearer and still linear.
	p := r.Perm(n)
	out := make([]int, k)
	copy(out, p[:k])
	return out
}
