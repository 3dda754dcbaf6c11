// Package rng provides deterministic pseudo-random number generation for
// the randomized algorithms in this repository.
//
// All algorithms in the paper (CLUSTER, CLUSTER2, MPX, HADI) are randomized.
// To make experiments reproducible regardless of goroutine scheduling, the
// package offers two styles of generation:
//
//   - A sequential generator (RNG, xoshiro256**) seeded via SplitMix64, for
//     places where a single goroutine draws a stream of values.
//   - Stateless hash-based coins (Coin, Flip, Uniform, ExpAt) keyed by
//     (seed, round, node), so that per-node random decisions made
//     concurrently by many workers are identical across runs and across
//     worker counts.
package rng

import "math"

// SplitMix64 advances the given state and returns the next 64-bit value of
// the SplitMix64 sequence. It is used both to seed xoshiro and as the core
// of the stateless hash-based coins.
func SplitMix64(state uint64) uint64 {
	z := state + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes an arbitrary sequence of 64-bit words into a single
// well-distributed 64-bit value. It chains SplitMix64 finalizers, which is
// sufficient for statistical (non-cryptographic) use.
func Mix64(words ...uint64) uint64 {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for _, w := range words {
		h = SplitMix64(h ^ w)
	}
	return h
}

// RNG is a xoshiro256** generator. The zero value is invalid; construct with
// New. RNG is not safe for concurrent use.
type RNG struct {
	s [4]uint64
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	state := seed
	for i := range r.s {
		state = SplitMix64(state)
		r.s[i] = state
	}
	// xoshiro must not be seeded with the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the xoshiro256** sequence.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Int63n returns a uniform value in [0, n). n must be positive.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	// Rejection sampling over the top bits to avoid modulo bias.
	max := uint64(math.MaxUint64 - math.MaxUint64%uint64(n))
	for {
		v := r.Uint64()
		if v < max {
			return int64(v % uint64(n))
		}
	}
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// --- Stateless hash-based primitives ----------------------------------------
//
// These make per-node random decisions independent of evaluation order:
// every worker computing Coin(seed, round, node, p) gets the same answer.

// Uniform returns a uniform float64 in [0, 1) keyed by the given words.
func Uniform(words ...uint64) float64 {
	return float64(Mix64(words...)>>11) * (1.0 / (1 << 53))
}

// Coin returns true with probability p, keyed by the given words.
func Coin(p float64, words ...uint64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return Uniform(words...) < p
}

// Flip is Coin with its probability and every key word but the last
// hoisted: NewFlip(p, words...).At(w) == Coin(p, words..., w) for every w,
// at the cost of one SplitMix64 round and an integer comparison a call. A
// loop that flips one coin per node under a fixed prefix builds it once.
type Flip struct {
	prefix    uint64 // Mix64 of the hoisted words
	threshold uint64 // ⌈p·2⁵³⌉, clamped to [0, 2⁵³]
}

// NewFlip returns the coin of probability p keyed by the given words and
// one more, supplied to At. Uniform's value x·2⁻⁵³ (x a 53-bit integer) is
// below p exactly when x < ⌈p·2⁵³⌉, the scaling being exact; p ≤ 0 and NaN
// never come up, p ≥ 1 always does, as in Coin.
func NewFlip(p float64, words ...uint64) Flip {
	f := Flip{prefix: Mix64(words...)}
	switch {
	case p >= 1:
		f.threshold = 1 << 53
	case p > 0:
		f.threshold = uint64(math.Ceil(p * (1 << 53)))
	}
	return f
}

// At flips the coin keyed by the hoisted words and w.
func (f Flip) At(w uint64) bool { return SplitMix64(f.prefix^w)>>11 < f.threshold }

// ExpAt returns an Exp(beta) variate keyed by the given words.
func ExpAt(beta float64, words ...uint64) float64 {
	u := Uniform(words...)
	if u == 0 {
		u = 0.5 / (1 << 53)
	}
	return -math.Log(u) / beta
}

// SortableFloat32Bits maps a float32 to a uint32 whose unsigned ordering
// matches the ordering of the floats (including negatives). It is used to
// pack (priority, clusterID) pairs into a single uint64 for atomic
// max-claims in the MPX decomposition.
func SortableFloat32Bits(f float32) uint32 {
	b := math.Float32bits(f)
	if b&0x8000_0000 != 0 {
		return ^b
	}
	return b | 0x8000_0000
}

// FromSortableFloat32Bits inverts SortableFloat32Bits.
func FromSortableFloat32Bits(b uint32) float32 {
	if b&0x8000_0000 != 0 {
		return math.Float32frombits(b & 0x7fff_ffff)
	}
	return math.Float32frombits(^b)
}
