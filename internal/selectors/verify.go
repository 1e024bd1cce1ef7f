package selectors

import (
	"fmt"

	"nsmac/internal/bitset"
	"nsmac/internal/mathx"
	"nsmac/internal/rng"
)

// Witness describes a selectivity violation found by a verifier: the set X
// that no family member intersects in exactly one element.
type Witness struct {
	X []int
}

// String implements fmt.Stringer.
func (w Witness) String() string { return fmt.Sprintf("unselected X=%v", w.X) }

// selectsOne reports whether some set of f intersects x in exactly one
// element.
func selectsOne(f Family, x *bitset.Bitset) bool {
	l := f.Length()
	for j := int64(0); j < l; j++ {
		cnt := 0
		hit := false
		x.ForEach(func(id int) bool {
			if f.Member(j, id) {
				cnt++
			}
			return cnt <= 1
		})
		hit = cnt == 1
		if hit {
			return true
		}
	}
	return false
}

// isolates reports whether some set of f intersects x in exactly {target}.
func isolates(f Family, x *bitset.Bitset, target int) bool {
	l := f.Length()
	for j := int64(0); j < l; j++ {
		if !f.Member(j, target) {
			continue
		}
		ok := true
		x.ForEach(func(id int) bool {
			if id != target && f.Member(j, id) {
				ok = false
				return false
			}
			return true
		})
		if ok {
			return true
		}
	}
	return false
}

// forEachSubset enumerates every subset of [1, n] of size exactly size and
// calls fn with a reusable bitset; fn returning false stops enumeration.
// Exponential — callers keep n small.
func forEachSubset(n, size int, fn func(x *bitset.Bitset) bool) {
	if size == 0 || size > n {
		return
	}
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i + 1
	}
	x := bitset.New(n)
	for {
		x.Reset()
		for _, v := range idx {
			x.Set(v)
		}
		if !fn(x) {
			return
		}
		// Next combination.
		i := size - 1
		for i >= 0 && idx[i] == n-size+i+1 {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < size; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// IsSelective exhaustively checks the paper's (n,k)-selectivity: for every
// X with ceil(k/2) ≤ |X| ≤ k some set intersects X in exactly one element.
// Exponential in n; intended for n ≤ ~20 in tests. Returns a witness on
// failure.
func IsSelective(f Family, k int) (bool, *Witness) {
	n := f.N()
	if k < 1 || k > n {
		panic("selectors: IsSelective requires 1 <= k <= n")
	}
	lo := max(1, mathx.CeilDiv(k, 2))
	for size := lo; size <= k; size++ {
		var bad *Witness
		forEachSubset(n, size, func(x *bitset.Bitset) bool {
			if !selectsOne(f, x) {
				bad = &Witness{X: x.Slice()}
				return false
			}
			return true
		})
		if bad != nil {
			return false, bad
		}
	}
	return true, nil
}

// IsStronglySelective exhaustively checks (n,k)-strong selectivity: for
// every X with 1 ≤ |X| ≤ k and every x ∈ X, some set isolates x within X.
func IsStronglySelective(f Family, k int) (bool, *Witness) {
	n := f.N()
	if k < 1 || k > n {
		panic("selectors: IsStronglySelective requires 1 <= k <= n")
	}
	for size := 1; size <= k; size++ {
		var bad *Witness
		forEachSubset(n, size, func(x *bitset.Bitset) bool {
			ok := true
			x.ForEach(func(target int) bool {
				if !isolates(f, x, target) {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				bad = &Witness{X: x.Slice()}
				return false
			}
			return true
		})
		if bad != nil {
			return false, bad
		}
	}
	return true, nil
}

// SampleSelective checks selectivity on `trials` uniformly random sets X of
// size in [ceil(k/2), k]. It is the scalable stand-in for IsSelective on
// universes too large to enumerate; a returned witness is a real violation,
// but absence of a witness is only statistical evidence.
func SampleSelective(f Family, k int, trials int, seed uint64) (bool, *Witness) {
	n := f.N()
	if k < 1 || k > n {
		panic("selectors: SampleSelective requires 1 <= k <= n")
	}
	src := rng.New(seed)
	lo := max(1, mathx.CeilDiv(k, 2))
	var ids []int
	for t := 0; t < trials; t++ {
		size := lo
		if k > lo {
			size = lo + src.Intn(k-lo+1)
		}
		ids = src.Sample(ids, n, size)
		x := bitset.FromSlice(n, ids)
		if !selectsOne(f, x) {
			return false, &Witness{X: x.Slice()}
		}
	}
	return true, nil
}

// ---------------------------------------------------------------------------
// Greedy exhaustive construction (tiny n ground truth)

// Greedy constructs an exactly verified (n,k)-selective family for tiny
// universes by greedy set cover over the (X)-constraints: it repeatedly adds
// the candidate set selecting the most still-unselected subsets X. The
// candidate pool is all singletons plus seeded random sets at dyadic
// densities, so termination is guaranteed (singletons select any X
// eventually). Exponential in n; intended for n ≤ 16.
func Greedy(n, k int, seed uint64) *Explicit {
	if n < 1 || k < 1 || k > n {
		panic("selectors: Greedy requires 1 <= k <= n")
	}
	if n > 20 {
		panic("selectors: Greedy limited to n <= 20")
	}
	// Enumerate constraints: all X with ceil(k/2) <= |X| <= k.
	var constraints []*bitset.Bitset
	lo := max(1, mathx.CeilDiv(k, 2))
	for size := lo; size <= k; size++ {
		forEachSubset(n, size, func(x *bitset.Bitset) bool {
			constraints = append(constraints, x.Clone())
			return true
		})
	}
	// Candidate pool: singletons + random dyadic-density sets.
	var pool []*bitset.Bitset
	for id := 1; id <= n; id++ {
		pool = append(pool, bitset.FromSlice(n, []int{id}))
	}
	src := rng.New(seed)
	densities := max(1, mathx.Log2Ceil(n))
	for i := 1; i <= densities; i++ {
		for rep := 0; rep < 8*n; rep++ {
			b := bitset.New(n)
			for id := 1; id <= n; id++ {
				if rng.Below(src.Uint64(), i) {
					b.Set(id)
				}
			}
			if !b.Empty() {
				pool = append(pool, b)
			}
		}
	}

	unsel := make([]bool, len(constraints)) // false = still unselected
	remaining := len(constraints)
	var chosen []*bitset.Bitset
	for remaining > 0 {
		best, bestGain := -1, 0
		for ci, cand := range pool {
			gain := 0
			for xi, done := range unsel {
				if done {
					continue
				}
				if _, one := constraints[xi].IntersectOne(cand); one {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = ci, gain
			}
		}
		if best < 0 {
			// Cannot happen: any singleton of an element of an unselected X
			// selects it. Guard anyway.
			panic("selectors: greedy made no progress")
		}
		cand := pool[best]
		chosen = append(chosen, cand.Clone())
		for xi, done := range unsel {
			if done {
				continue
			}
			if _, one := constraints[xi].IntersectOne(cand); one {
				unsel[xi] = true
				remaining--
			}
		}
	}
	return NewExplicit(fmt.Sprintf("greedy(n=%d,k=%d)", n, k), n, chosen)
}
