package xrand

import "math"

// The Fill variants below generate variates in batches. Each is draw-for-draw
// identical to calling its scalar counterpart len(dst) times — same stream
// consumption, same values — so a simulator can switch between scalar and
// batched generation freely without changing its output. Batching exists
// because the v2 stream discipline consumes unit exponentials and uniforms in
// bulk: filling a buffer amortizes the per-call overhead and keeps the hot
// loop free of function-call-per-variate costs.

// Float64Fill fills dst with uniform values in [0, 1), consuming exactly
// len(dst) Uint64 draws — the same stream Float64 would consume called
// len(dst) times.
func (r *RNG) Float64Fill(dst []float64) {
	s := &r.s
	for i := range dst {
		// Inlined Uint64: xoshiro256** next().
		result := rotl(s[1]*5, 7) * 9
		t := s[1] << 17
		s[2] ^= s[0]
		s[3] ^= s[1]
		s[1] ^= s[2]
		s[0] ^= s[3]
		s[2] ^= t
		s[3] = rotl(s[3], 45)
		dst[i] = float64(result>>11) / (1 << 53)
	}
}

// ExpFill fills dst with exponentially distributed values of the given rate,
// draw-for-draw identical to len(dst) sequential Exp(rate) calls. It panics
// if rate <= 0.
func (r *RNG) ExpFill(rate float64, dst []float64) {
	if rate <= 0 {
		panic("xrand: ExpFill called with non-positive rate")
	}
	r.Float64Fill(dst)
	// Divide rather than multiply by a precomputed reciprocal: the batch must
	// be bit-identical to the scalar Exp, which divides.
	for i, u := range dst {
		dst[i] = -math.Log(1-u) / rate
	}
}

// GeometricFill fills dst with geometric variates (failures before the first
// success of Bernoulli(p) trials), draw-for-draw identical to len(dst)
// sequential Geometric(p) calls. It panics if p is outside (0, 1].
func (r *RNG) GeometricFill(p float64, dst []int) {
	if p <= 0 || p > 1 {
		panic("xrand: GeometricFill called with p outside (0,1]")
	}
	if p == 1 {
		// Geometric(1) consumes no draws, so neither does its batch.
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	invLog := 1 / math.Log(1-p)
	for i := range dst {
		u := 1 - r.Float64()
		dst[i] = int(math.Floor(math.Log(u) * invLog))
	}
}

// MarkovStep advances every entry of state one step of a two-state Markov
// chain: an absent entry (false) appears with probability p and a present
// one disappears with probability q. It consumes one draw per entry, in
// order, and is draw-for-draw identical to
//
//	for i, on := range state {
//		if on {
//			state[i] = !r.Bernoulli(q)
//		} else {
//			state[i] = r.Bernoulli(p)
//		}
//	}
//
// Instead of forming Float64 it compares the 53 bits behind it with an exact
// integer threshold: Float64() is (x>>11)/2⁵³ without rounding, so
// Float64() < p holds exactly when x>>11 < ⌈p·2⁵³⌉. With the generator state
// in locals and no branch on the draw, the loop runs at the speed of the
// generator.
func (r *RNG) MarkovStep(state []bool, p, q float64) {
	// thr[on] decides an entry: an absent one appears below thr[0], a
	// present one stays unless it draws below thr[1]. Indexing a small
	// array, rather than selecting between two locals, leaves the generator
	// state all the registers it needs.
	thr := [2]uint64{threshold53(p), threshold53(q)}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range state {
		// Inlined Uint64: xoshiro256** next().
		x := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		on := state[i]
		k := 0
		if on {
			k = 1
		}
		state[i] = (x>>11 < thr[k&1]) != on
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// threshold53 returns ⌈p·2⁵³⌉ clamped to [0, 2⁵³]: the number of 53-bit
// values k with k/2⁵³ < p. Scaling by a power of two is exact, so the
// product is rounded nowhere but in the ceiling.
func threshold53(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	default: // p <= 0 or NaN: Bernoulli(p) never succeeds
		return 0
	}
}
