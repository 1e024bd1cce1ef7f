// Package selectors implements (n,k)-selective families, the combinatorial
// tool behind the Scenario A and B algorithms (paper §3–4).
//
// Definition (paper §3): a family F of subsets of [n] is (n,k)-selective if
// for every X ⊆ [n] with k/2 ≤ |X| ≤ k there is a set F ∈ F with
// |X ∩ F| = 1. A family is (n,k)-STRONGLY selective if for every X with
// |X| ≤ k and every x ∈ X some F satisfies X ∩ F = {x}.
//
// The paper uses Komlós–Greenberg families of optimal length
// O(k + k·log(n/k)) whose existence is proved by the probabilistic method.
// This package provides:
//
//   - Singletons: the trivial family {1},…,{n} (round-robin), selective for
//     every k, length n.
//   - RandomPow2: the probabilistic-method object itself — each station is
//     in each set with probability 2^-i — instantiated by a fixed hash seed
//     and evaluated lazily. Length Θ(2^i·log(n/2^i) + 2^i), matching the
//     optimal bound; selective w.h.p. (verified exhaustively for small n in
//     tests; see DESIGN.md §4 substitution 1).
//   - KautzSingleton: an explicit, provably (n,k)-strongly-selective family
//     built from Reed–Solomon codes (Kautz–Singleton superimposed codes),
//     length q² for a prime q = O(k·log n / log(k)). Larger, but with an
//     unconditional guarantee.
//   - Greedy: an exhaustively verified construction for tiny universes,
//     used as ground truth in tests.
//
// A Sequence concatenates families and exposes the boundary structure that
// wait_and_go (§4) synchronizes on.
package selectors

import (
	"fmt"
	"math"
	"sync/atomic"

	"nsmac/internal/bitset"
	"nsmac/internal/mathx"
	"nsmac/internal/rng"
)

// Family is a finite sequence of transmission sets over the universe [1, n].
// Sets are addressed by index j in [0, Length()); Member reports whether a
// station belongs to set j. Implementations must be deterministic.
type Family interface {
	// Name identifies the construction in tables.
	Name() string
	// N returns the universe size.
	N() int
	// Length returns the number of sets.
	Length() int64
	// Member reports whether station id ∈ F_j, for 0 <= j < Length() and
	// 1 <= id <= N().
	Member(j int64, id int) bool
}

// ---------------------------------------------------------------------------
// Singletons (round-robin)

// Singletons is the trivial family F_j = {j+1}: round-robin. It is
// (n,k)-selective (indeed strongly selective) for every k ≤ n and has
// length exactly n.
type Singletons struct{ n int }

// NewSingletons returns the singleton family over [1, n].
func NewSingletons(n int) *Singletons {
	if n < 1 {
		panic("selectors: NewSingletons requires n >= 1")
	}
	return &Singletons{n: n}
}

// Name implements Family.
func (s *Singletons) Name() string { return "singletons" }

// N implements Family.
func (s *Singletons) N() int { return s.n }

// Length implements Family.
func (s *Singletons) Length() int64 { return int64(s.n) }

// Member implements Family: F_j = {j+1}.
func (s *Singletons) Member(j int64, id int) bool {
	return int64(id-1) == j
}

// ---------------------------------------------------------------------------
// RandomPow2: the probabilistic-method family, seeded

// DefaultSizeMult is the default multiplier applied to the information-
// theoretic length 2^i·(ln(n/2^i)+1). The union-bound analysis needs a
// constant ≈ 1/(isolation probability) ≈ 5.5; 8 leaves slack for small n.
const DefaultSizeMult = 8.0

// RandomPow2 is an (n,2^i)-selective family w.h.p.: every station belongs
// to every set independently with probability 2^-i, realized by a seeded
// avalanche hash so that no storage is needed. Stations sharing (n, i,
// seed) see the exact same family, as the globally synchronous model
// requires.
type RandomPow2 struct {
	n      int
	i      int // density exponent: membership probability 2^-i
	length int64
	seed   uint64
}

// RandomLength returns the length used for an (n,2^i) random family with
// the given size multiplier: ceil(mult · 2^i · (ln(n/2^i) + 1)), at least 1.
func RandomLength(n, i int, mult float64) int64 {
	if n < 1 || i < 0 {
		panic("selectors: RandomLength requires n >= 1, i >= 0")
	}
	if mult <= 0 {
		mult = DefaultSizeMult
	}
	p2 := math.Pow(2, float64(i))
	lnTerm := math.Log(float64(n) / p2)
	if lnTerm < 0 {
		lnTerm = 0
	}
	l := int64(math.Ceil(mult * p2 * (lnTerm + 1)))
	if l < 1 {
		l = 1
	}
	return l
}

// NewRandomPow2 builds the seeded (n,2^i)-selective family with the default
// size multiplier.
func NewRandomPow2(n, i int, seed uint64) *RandomPow2 {
	return NewRandomPow2Sized(n, i, seed, DefaultSizeMult)
}

// NewRandomPow2Sized builds the family with an explicit size multiplier
// (used by the T7/T8 size ablations).
func NewRandomPow2Sized(n, i int, seed uint64, mult float64) *RandomPow2 {
	if n < 1 {
		panic("selectors: NewRandomPow2 requires n >= 1")
	}
	if i < 0 {
		panic("selectors: NewRandomPow2 requires i >= 0")
	}
	return &RandomPow2{
		n:      n,
		i:      i,
		length: RandomLength(n, i, mult),
		seed:   seed,
	}
}

// Name implements Family.
func (r *RandomPow2) Name() string { return fmt.Sprintf("random(2^%d)", r.i) }

// N implements Family.
func (r *RandomPow2) N() int { return r.n }

// Length implements Family.
func (r *RandomPow2) Length() int64 { return r.length }

// Density returns the exponent i (membership probability 2^-i).
func (r *RandomPow2) Density() int { return r.i }

// Member implements Family: id ∈ F_j with probability 2^-i, keyed by
// (seed, i, j, id).
func (r *RandomPow2) Member(j int64, id int) bool {
	if j < 0 || j >= r.length {
		panic(fmt.Sprintf("selectors: set index %d out of [0,%d)", j, r.length))
	}
	if id < 1 || id > r.n {
		panic(fmt.Sprintf("selectors: station %d out of [1,%d]", id, r.n))
	}
	h := rng.Hash3(r.seed, uint64(r.i)+1, uint64(j)+1, uint64(id))
	return rng.Below(h, r.i)
}

// ---------------------------------------------------------------------------
// Kautz–Singleton / Reed–Solomon strongly selective family

// KautzSingleton is an explicit (n,k)-strongly-selective family built from
// Reed–Solomon codewords: station u ↦ the polynomial f_u over GF(q) whose
// base-q digits are (u-1)'s representation; set F_{q·p+v} = {u : f_u(p)=v}.
// Any two distinct degree-<m polynomials agree on at most m-1 points, so
// for |X| ≤ k and x ∈ X at most (k-1)(m-1) < q positions are spoiled and a
// clean position isolating x exists. Length q².
type KautzSingleton struct {
	n, k, q, m int
}

// NewKautzSingleton constructs the family for universe n and parameter k.
// It chooses the (m, q) pair minimizing the family length q² subject to
// q prime, q^m ≥ n and q > (k-1)(m-1).
func NewKautzSingleton(n, k int) *KautzSingleton {
	if n < 1 || k < 1 {
		panic("selectors: NewKautzSingleton requires n, k >= 1")
	}
	if k == 1 {
		// Degenerate: any single station is isolated by its own singleton;
		// q must still satisfy q^m >= n. Use m=1: codeword = identity digit.
		q := mathx.NextPrime(n)
		return &KautzSingleton{n: n, k: k, q: q, m: 1}
	}
	bestQ, bestM := -1, -1
	// m = 1 means codewords are distinct field elements: q >= n, always valid.
	for m := 1; m <= 8; m++ {
		// Need q^m >= n and q >= (k-1)*(m-1)+1.
		low := mathx.Max(2, (k-1)*(m-1)+1)
		root := int(math.Ceil(math.Pow(float64(n), 1/float64(m))))
		if root > low {
			low = root
		}
		q := mathx.NextPrime(low)
		for !powAtLeast(q, m, n) { // guard float rounding
			q = mathx.NextPrime(q + 1)
		}
		if bestQ < 0 || q < bestQ {
			bestQ, bestM = q, m
		}
	}
	return &KautzSingleton{n: n, k: k, q: bestQ, m: bestM}
}

// powAtLeast reports whether q^m >= n without overflow for the small values
// used here.
func powAtLeast(q, m, n int) bool {
	v := 1
	for i := 0; i < m; i++ {
		if v >= n { // early exit also prevents overflow
			return true
		}
		v *= q
	}
	return v >= n
}

// Name implements Family.
func (ks *KautzSingleton) Name() string {
	return fmt.Sprintf("kautz-singleton(k=%d,q=%d,m=%d)", ks.k, ks.q, ks.m)
}

// N implements Family.
func (ks *KautzSingleton) N() int { return ks.n }

// K returns the strength parameter.
func (ks *KautzSingleton) K() int { return ks.k }

// Q returns the field size.
func (ks *KautzSingleton) Q() int { return ks.q }

// M returns the polynomial dimension (degree bound + 1).
func (ks *KautzSingleton) M() int { return ks.m }

// Length implements Family: q positions × q values.
func (ks *KautzSingleton) Length() int64 { return int64(ks.q) * int64(ks.q) }

// codeSymbol evaluates station id's polynomial at position p over GF(q).
func (ks *KautzSingleton) codeSymbol(id, p int) int {
	// digits of (id-1) in base q are the polynomial coefficients.
	u := int64(id - 1)
	q := int64(ks.q)
	x := int64(p)
	var acc, xpow int64 = 0, 1
	for d := 0; d < ks.m; d++ {
		coef := u % q
		u /= q
		acc = (acc + coef*xpow) % q
		xpow = xpow * x % q
	}
	return int(acc)
}

// Member implements Family: set j = (p, v) with p = j / q, v = j mod q;
// id ∈ F_j iff its codeword has symbol v at position p.
func (ks *KautzSingleton) Member(j int64, id int) bool {
	if j < 0 || j >= ks.Length() {
		panic(fmt.Sprintf("selectors: set index %d out of [0,%d)", j, ks.Length()))
	}
	if id < 1 || id > ks.n {
		panic(fmt.Sprintf("selectors: station %d out of [1,%d]", id, ks.n))
	}
	p := int(j / int64(ks.q))
	v := int(j % int64(ks.q))
	return ks.codeSymbol(id, p) == v
}

// ---------------------------------------------------------------------------
// Explicit families

// Explicit is a materialized family: one bitset per transmission set.
type Explicit struct {
	name string
	n    int
	sets []*bitset.Bitset
}

// NewExplicit wraps pre-built sets into a family.
func NewExplicit(name string, n int, sets []*bitset.Bitset) *Explicit {
	for i, s := range sets {
		if s.Cap() != n {
			panic(fmt.Sprintf("selectors: set %d capacity %d != n %d", i, s.Cap(), n))
		}
	}
	return &Explicit{name: name, n: n, sets: sets}
}

// Materialize converts any family into an explicit one (length must be
// moderate; intended for verification and small-n use).
func Materialize(f Family) *Explicit {
	l := f.Length()
	if l > 1<<22 {
		panic("selectors: refusing to materialize a family with >4M sets")
	}
	sets := make([]*bitset.Bitset, l)
	for j := int64(0); j < l; j++ {
		b := bitset.New(f.N())
		for id := 1; id <= f.N(); id++ {
			if f.Member(j, id) {
				b.Set(id)
			}
		}
		sets[j] = b
	}
	return &Explicit{name: f.Name() + "/explicit", n: f.N(), sets: sets}
}

// Name implements Family.
func (e *Explicit) Name() string { return e.name }

// N implements Family.
func (e *Explicit) N() int { return e.n }

// Length implements Family.
func (e *Explicit) Length() int64 { return int64(len(e.sets)) }

// Member implements Family.
func (e *Explicit) Member(j int64, id int) bool {
	return e.sets[j].Get(id)
}

// Set returns the j-th transmission set (shared, do not mutate).
func (e *Explicit) Set(j int64) *bitset.Bitset { return e.sets[j] }

// ---------------------------------------------------------------------------
// Sequence: concatenation with boundary structure (wait_and_go's schedule F)

// Sequence is the ordered concatenation 〈F_1, F_2, …, F_l〉 of families
// (paper §4). It exposes the family boundaries, which wait_and_go uses as
// its synchronization points, and supports cyclic indexing.
type Sequence struct {
	fams   []Family
	prefix []int64 // prefix[i] = start index of family i; prefix[len] = total
	n      int
}

// NewSequence concatenates the given families (all over the same universe).
func NewSequence(fams ...Family) *Sequence {
	if len(fams) == 0 {
		panic("selectors: NewSequence requires at least one family")
	}
	n := fams[0].N()
	lengths := make([]int64, len(fams))
	for i, f := range fams {
		if f.N() != n {
			panic("selectors: NewSequence families over different universes")
		}
		lengths[i] = f.Length()
	}
	return &Sequence{fams: fams, prefix: mathx.PrefixSums(lengths), n: n}
}

// N returns the universe size.
func (s *Sequence) N() int { return s.n }

// Name implements Family.
func (s *Sequence) Name() string { return fmt.Sprintf("sequence(%d families)", len(s.fams)) }

// Length implements Family: the total number of sets (the paper's z).
func (s *Sequence) Length() int64 { return s.prefix[len(s.fams)] }

// NumFamilies returns the number of concatenated families.
func (s *Sequence) NumFamilies() int { return len(s.fams) }

// FamilyStart returns the start index of family i (0-based).
func (s *Sequence) FamilyStart(i int) int64 { return s.prefix[i] }

// Locate maps a global set index j ∈ [0, Length()) to (family index, local
// set index) by binary search over the boundaries.
func (s *Sequence) Locate(j int64) (fam int, local int64) {
	if j < 0 || j >= s.Length() {
		panic(fmt.Sprintf("selectors: sequence index %d out of [0,%d)", j, s.Length()))
	}
	lo, hi := 0, len(s.fams)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.prefix[mid] <= j {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, j - s.prefix[lo]
}

// Member implements Family on the concatenation.
func (s *Sequence) Member(j int64, id int) bool {
	fam, local := s.Locate(j)
	return s.fams[fam].Member(local, id)
}

// MemberCyclic indexes the sequence circularly: position t ≥ 0 maps to set
// t mod Length() ("F is scanned in a circular way", paper §5.1 / §4).
func (s *Sequence) MemberCyclic(t int64, id int) bool {
	if t < 0 {
		panic("selectors: negative cyclic index")
	}
	return s.Member(t%s.Length(), id)
}

// KSCursor reads one station's cyclic schedule on a Kautz–Singleton ladder
// (a Sequence whose families are all *KautzSingleton, as KSLadder builds).
// In such a family each q-slot position block [p·q, (p+1)·q) holds exactly
// one of the station's member slots, p·q + f_id(p), so the cursor caches
// the current block's absolute window and member slot: a query inside the
// window is two compares, and any other query re-seeks with one Locate and
// one code-symbol evaluation. Forward scans thus cost one evaluation per q
// slots; backward and jumping queries stay exact. Member(t) equals
// MemberCyclic(t, id), panics included. A cursor is not safe for
// concurrent use.
type KSCursor struct {
	seq    *Sequence
	id     int
	lo, hi int64 // absolute window [lo, hi) of the cached position block
	hit    int64 // the station's member slot in that window
}

// KSCursor returns a cursor over station id's cyclic schedule. It panics if
// a family of s is not a *KautzSingleton.
func (s *Sequence) KSCursor(id int) *KSCursor {
	for _, f := range s.fams {
		if _, ok := f.(*KautzSingleton); !ok {
			panic(fmt.Sprintf("selectors: KSCursor over a %s family", f.Name()))
		}
	}
	return &KSCursor{seq: s, id: id}
}

// Member reports whether the station belongs to set t mod Length(), for
// t ≥ 0: MemberCyclic(t, id).
func (c *KSCursor) Member(t int64) bool {
	if t >= c.lo && t < c.hi {
		return t == c.hit
	}
	return c.seek(t)
}

// Next returns the first member slot ≥ t, for t ≥ 0: the member slot of
// t's position block, or of the block after it when that slot is behind t.
func (c *KSCursor) Next(t int64) int64 {
	if t < c.lo || t >= c.hi {
		c.seek(t)
	}
	if c.hit < t {
		c.seek(c.hi)
	}
	return c.hit
}

// seek moves the cached window to t's position block and answers for t.
func (c *KSCursor) seek(t int64) bool {
	if t < 0 {
		panic("selectors: negative cyclic index")
	}
	fam, local := c.seq.Locate(t % c.seq.Length())
	ks := c.seq.fams[fam].(*KautzSingleton)
	if c.id < 1 || c.id > ks.n {
		panic(fmt.Sprintf("selectors: station %d out of [1,%d]", c.id, ks.n))
	}
	q := int64(ks.q)
	p := local / q
	c.lo = t - local%q
	c.hi = c.lo + q
	c.hit = c.lo + int64(ks.codeSymbol(c.id, int(p)))
	return t == c.hit
}

// NextBoundary returns the smallest σ ≥ t such that σ mod Length() is the
// first set of one of the concatenated families. This is wait_and_go's
// waiting rule: a station woken at t stays silent until NextBoundary(t).
func (s *Sequence) NextBoundary(t int64) int64 {
	if t < 0 {
		panic("selectors: negative time")
	}
	z := s.Length()
	cycle := t / z
	pos := t % z
	for _, b := range s.prefix[:len(s.fams)] {
		if b >= pos {
			return cycle*z + b
		}
	}
	// Wrap to the first boundary (index 0) of the next cycle.
	return (cycle + 1) * z
}

// ---------------------------------------------------------------------------
// Ladders: the standard 〈(n,2^1), (n,2^2), …〉 concatenations

// RandomLadder returns the concatenation of seeded-random (n,2^i)-selective
// families for i = 1..maxI (paper §3's "sequential composition of schedules
// defined by the concatenation of (n,2^j)-selective families"). Each rung
// derives an independent seed so rungs are uncorrelated.
//
// The result is shared: a repeated call with the same arguments may return
// the same immutable *Sequence (see ladderCache).
func RandomLadder(n, maxI int, seed uint64, mult float64) *Sequence {
	if maxI < 1 {
		panic("selectors: RandomLadder requires maxI >= 1")
	}
	key := ladderKey{n: n, maxI: maxI, seed: seed, mult: math.Float64bits(mult)}
	if s := key.cached(); s != nil {
		return s
	}
	fams := make([]Family, maxI)
	for i := 1; i <= maxI; i++ {
		fams[i-1] = NewRandomPow2Sized(n, i, rng.Derive(seed, uint64(i)), mult)
	}
	return key.store(NewSequence(fams...))
}

// KSLadder returns the concatenation of Kautz–Singleton strongly-selective
// families for k = 2^1..2^maxI. Provably correct but quadratically longer;
// used by T7 and as the LocalSSF baseline substrate.
//
// Like RandomLadder's, the result may be a shared cached *Sequence.
func KSLadder(n, maxI int) *Sequence {
	if maxI < 1 {
		panic("selectors: KSLadder requires maxI >= 1")
	}
	key := ladderKey{kautz: true, n: n, maxI: maxI}
	if s := key.cached(); s != nil {
		return s
	}
	fams := make([]Family, maxI)
	for i := 1; i <= maxI; i++ {
		k := mathx.Min(int(mathx.Pow2(i)), n)
		fams[i-1] = NewKautzSingleton(n, k)
	}
	return key.store(NewSequence(fams...))
}

// ladderCacheSlots is the ladder cache's size, a power of two. A trial
// needs one or two ladder keys (an algorithm's Build and its Horizon), so a
// small table holds every live key of a few concurrent workers.
const ladderCacheSlots = 64

// ladderCache memoizes RandomLadder and KSLadder. Both are pure in their
// arguments and return an immutable *Sequence, yet every station of a trial
// asks for the same ladder. The cache is direct-mapped and lock-free: a
// slot holds the last entry stored under any key hashing to it, and a
// lookup hits only on an exact key match, so a collision costs a rebuild,
// never a wrong ladder.
var ladderCache [ladderCacheSlots]atomic.Pointer[ladderEntry]

// ladderKey is every argument of one ladder construction.
type ladderKey struct {
	kautz   bool // KSLadder; seed and mult are unused
	n, maxI int
	seed    uint64
	mult    uint64 // math.Float64bits of RandomLadder's size multiplier
}

type ladderEntry struct {
	key ladderKey
	seq *Sequence
}

func (k ladderKey) slot() *atomic.Pointer[ladderEntry] {
	// kautz stays out of the hash: the two kinds only share a slot when
	// their other fields agree, and the key comparison tells them apart.
	h := rng.Hash3(k.seed, uint64(k.n), uint64(k.maxI), k.mult)
	return &ladderCache[h&(ladderCacheSlots-1)]
}

// cached returns the ladder stored under k, or nil.
func (k ladderKey) cached() *Sequence {
	if e := k.slot().Load(); e != nil && e.key == k {
		return e.seq
	}
	return nil
}

// store publishes s under k and returns it.
func (k ladderKey) store(s *Sequence) *Sequence {
	k.slot().Store(&ladderEntry{key: k, seq: s})
	return s
}
