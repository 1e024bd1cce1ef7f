// Package rng supplies the deterministic randomness substrate for the
// repository: a splitmix64 stream deriver, a xoshiro256** generator for
// per-station and per-trial streams, and a stable 3-word avalanche hash used
// to evaluate random combinatorial objects (selective families, the
// Scenario C transmission matrix) lazily, without materializing them.
//
// Everything here is seeded explicitly. Two runs with the same seeds produce
// identical schedules, identical matrices and identical experiment tables on
// any platform and Go version, which is what makes the "probabilistic method
// instantiated by a fixed seed" substitution (see DESIGN.md §4) reproducible.
package rng

import (
	"math/bits"
	"slices"
)

// Mix64 is the splitmix64 finalizer: a bijective avalanche permutation on
// 64-bit words (Steele, Lea, Flood 2014). It is the primitive from which
// both stream seeding and the lazy membership hash are built.
func Mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hash mixing keys: arbitrary odd constants, distinct per argument slot so
// that Hash3(s,a,b,c) != Hash3(s,b,a,c) and friends.
const (
	hashK1 = 0x9e3779b97f4a7c15
	hashK2 = 0xc2b2ae3d27d4eb4f
	hashK3 = 0x165667b19e3779f9
)

// Hash3 deterministically hashes (seed, a, b, c) to a uniform-looking 64-bit
// value. It is the membership oracle behind lazily evaluated random
// structures: element u belongs to random set (a, b) of the structure keyed
// by seed iff Hash3(seed, a, b, u) falls below a probability threshold.
func Hash3(seed, a, b, c uint64) uint64 {
	return Hash3Tail(Hash3Head(seed, a, b), c)
}

// Hash3Head is the part of Hash3(seed, a, b, c) that does not read c: the
// key that every element c of random set (a, b) shares. A caller that
// tests many elements of one set computes it once.
func Hash3Head(seed, a, b uint64) uint64 {
	return Mix64(Mix64(seed^a*hashK1) ^ b*hashK2)
}

// Hash3Tail finishes Hash3 from the head of its first three arguments:
// Hash3(seed, a, b, c) == Hash3Tail(Hash3Head(seed, a, b), c).
func Hash3Tail(head, c uint64) uint64 {
	return Mix64(head ^ c*hashK3)
}

// Below reports whether h < 2^(64-e), i.e. whether a uniform 64-bit hash
// lands in a window of probability 2^-e. For e <= 0 it is always true; for
// e >= 64 always false.
func Below(h uint64, e int) bool {
	if e <= 0 {
		return true
	}
	if e >= 64 {
		return false
	}
	return h>>(64-uint(e)) == 0
}

// Source is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with New or Derive.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from a single 64-bit seed via splitmix64,
// following the xoshiro authors' recommended initialization.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed reinitializes the source in place from seed.
func (s *Source) Reseed(seed uint64) {
	s.s0 = Mix64(seed)
	s.s1 = Mix64(seed + 1)
	s.s2 = Mix64(seed + 2)
	s.s3 = Mix64(seed + 3)
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1 // xoshiro must not start from the all-zero state
	}
}

// Derive deterministically derives an independent child seed from a parent
// seed and a stream index. It is how parallel trial workers and per-station
// generators obtain non-overlapping streams.
func Derive(parent uint64, stream uint64) uint64 {
	return Mix64(parent ^ Mix64(stream+0x632be59bd9b4e019))
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// FirstUint64 returns the first Uint64 of a source seeded with seed — what
// Reseed(seed) followed by Uint64() returns — without building the source:
// the first output depends on the second state word alone.
func FirstUint64(seed uint64) uint64 { return rotl(Mix64(seed+1)*5, 7) * 9 }

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n) for n > 0, using Lemire's
// nearly-divisionless bounded rejection method.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn bound must be positive")
	}
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Int63n returns a uniform int64 in [0, n) for n > 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n bound must be positive")
	}
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int64(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher–Yates.
func (s *Source) Perm(n int) []int {
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

// Sample returns a uniformly random subset of size k from [1, n] (1-based
// station IDs), in increasing order, in dst's backing array when it has the
// room (pass nil for a fresh slice). It panics if k > n.
//
// It runs Floyd's algorithm: k draws, and no allocation when dst has the
// room, else one. A draw that repeats an earlier one is replaced by j, which
// no earlier draw can equal. The draws and the sorted result fix the output;
// only the dedup set varies: a bitset on the stack for small universes, a
// bitset carved out of the result's own backing array, past its first k
// entries, when the sample is dense enough that the bitset costs at most
// sampleCarveRatio words per ID, and the sorted result itself, searched by
// bisection, for sparse samples of large universes.
func (s *Source) Sample(dst []int, n, k int) []int {
	if k > n || k < 0 {
		panic("rng: Sample requires 0 <= k <= n")
	}
	words := n/wordBits + 1 // one bit per ID in [0, n]
	switch {
	case n < sampleBitsetCap:
		var seen [sampleBitsetCap / wordBits]int
		return s.floydBits(n, k, seen[:words], room(dst, k))
	case words <= sampleCarveRatio*k:
		buf := dst[:cap(dst)]
		if len(buf) < k+words {
			buf = make([]int, k+words)
		}
		seen := buf[k : k+words]
		clear(seen)
		return s.floydBits(n, k, seen, buf[:0])
	}
	// Every earlier draw is below j, so a replacement lands at the end.
	out := room(dst, k)
	for j := n - k + 1; j <= n; j++ {
		t := s.Intn(j) + 1
		i, dup := slices.BinarySearch(out, t)
		if dup {
			out = append(out, j)
			continue
		}
		out = slices.Insert(out, i, t)
	}
	return out
}

// room returns dst emptied, or a new slice if dst cannot hold k ints.
func room(dst []int, k int) []int {
	if cap(dst) < k {
		return make([]int, 0, k)
	}
	return dst[:0]
}

// floydBits draws Floyd's sample of k IDs from [1, n], deduplicating in
// seen, a zeroed bitset over [0, n], and appends the sample to out in
// increasing order. out may share seen's backing array if its first k
// entries lie before seen.
func (s *Source) floydBits(n, k int, seen, out []int) []int {
	for j := n - k + 1; j <= n; j++ {
		t := s.Intn(j) + 1
		if seen[t/wordBits]&(1<<(t%wordBits)) != 0 {
			t = j
		}
		seen[t/wordBits] |= 1 << (t % wordBits)
	}
	for w, word := range seen {
		for u := uint(word); u != 0; u &= u - 1 {
			out = append(out, w*wordBits+bits.TrailingZeros(u))
		}
	}
	return out
}

const (
	// wordBits is the width of the ints Sample's bitsets are made of.
	wordBits = bits.UintSize
	// sampleBitsetCap bounds the universes Sample deduplicates in a stack
	// bitset (1 KiB).
	sampleBitsetCap = 8192
	// sampleCarveRatio is the most bitset words per sampled ID Sample
	// carves from its result; sparser samples bisect the result instead.
	sampleCarveRatio = 8
)

// mul64 returns the 128-bit product of a and b as (hi, lo) without
// importing math/bits at every call site (kept local for inlining).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask32+aLo*bHi)>>32
	return hi, lo
}
