// Package bitset implements a dense fixed-capacity bitset over 64-bit words.
//
// Bitsets are the working representation for transmission sets: a selective
// family is a sequence of bitsets over the station universe [1, n], the
// channel computes |X ∩ F| via IntersectCount, and the exhaustive verifiers
// enumerate subsets as bitsets. Station IDs are 1-based everywhere in this
// repository, so Set(1) flips the first usable bit; index 0 is rejected.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Bitset is a fixed-capacity set of integers drawn from [1, Cap()].
type Bitset struct {
	words []uint64
	n     int // capacity: valid elements are 1..n
}

// New returns an empty bitset with capacity for elements 1..n.
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// FromSlice builds a bitset of capacity n containing the given elements.
func FromSlice(n int, elems []int) *Bitset {
	b := New(n)
	for _, e := range elems {
		b.Set(e)
	}
	return b
}

// Cap returns the capacity n (valid elements are 1..n).
func (b *Bitset) Cap() int { return b.n }

func (b *Bitset) check(x int) {
	if x < 1 || x > b.n {
		panic(fmt.Sprintf("bitset: element %d out of range [1,%d]", x, b.n))
	}
}

// Set inserts x into the set.
func (b *Bitset) Set(x int) {
	b.check(x)
	i := x - 1
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear removes x from the set.
func (b *Bitset) Clear(x int) {
	b.check(x)
	i := x - 1
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Get reports whether x is in the set.
func (b *Bitset) Get(x int) bool {
	b.check(x)
	i := x - 1
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of elements in the set.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (b *Bitset) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset removes every element, keeping capacity.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Clone returns an independent copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// Equal reports whether b and o contain exactly the same elements. Sets of
// different capacity are never equal.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

func (b *Bitset) sameCap(o *Bitset, op string) {
	if b.n != o.n {
		panic("bitset: " + op + " on bitsets of different capacity")
	}
}

// UnionWith adds every element of o to b in place.
func (b *Bitset) UnionWith(o *Bitset) {
	b.sameCap(o, "UnionWith")
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// IntersectWith removes from b every element not in o, in place.
func (b *Bitset) IntersectWith(o *Bitset) {
	b.sameCap(o, "IntersectWith")
	for i, w := range o.words {
		b.words[i] &= w
	}
}

// DifferenceWith removes every element of o from b in place.
func (b *Bitset) DifferenceWith(o *Bitset) {
	b.sameCap(o, "DifferenceWith")
	for i, w := range o.words {
		b.words[i] &^= w
	}
}

// IntersectCount returns |b ∩ o| without allocating. This is the channel's
// per-slot arbitration primitive: |awake ∩ transmissionSet|.
func (b *Bitset) IntersectCount(o *Bitset) int {
	b.sameCap(o, "IntersectCount")
	c := 0
	for i, w := range b.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// IntersectOne returns (x, true) if |b ∩ o| == 1 with {x} the intersection,
// and (0, false) otherwise. It is the "selects exactly one" predicate of
// selective families, fused into a single pass.
func (b *Bitset) IntersectOne(o *Bitset) (int, bool) {
	b.sameCap(o, "IntersectOne")
	found := -1
	for i, w := range b.words {
		m := w & o.words[i]
		if m == 0 {
			continue
		}
		if found >= 0 || bits.OnesCount64(m) > 1 {
			return 0, false
		}
		found = i<<6 + bits.TrailingZeros64(m)
	}
	if found < 0 {
		return 0, false
	}
	return found + 1, true
}

// ForEach calls fn for every element in increasing order; if fn returns
// false, iteration stops early.
func (b *Bitset) ForEach(fn func(x int) bool) {
	for i, w := range b.words {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			if !fn(i<<6 + t + 1) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the elements in increasing order.
func (b *Bitset) Slice() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(x int) bool {
		out = append(out, x)
		return true
	})
	return out
}

// WordMask returns the 64-bit mask with bits [lo, hi) set (word-local bit
// indices, 0 <= lo <= hi <= 64) — the slot-window mask of the word-wide
// kernel step.
func WordMask(lo, hi uint) uint64 {
	if lo > hi || hi > 64 {
		panic(fmt.Sprintf("bitset: bad word mask [%d,%d)", lo, hi))
	}
	if lo == hi {
		return 0
	}
	return (^uint64(0) << lo) & (^uint64(0) >> (64 - hi))
}

// SoloScan accumulates per-slot transmitter multiplicity word-wide: feed it
// one transmit word per station (bit t set = that station transmits in slot
// t) and it tracks, per bit, whether at least one (Any) and more than one
// (Multi) station transmits — so Solo() is exactly the slots with a single
// transmitter. This is the kernel's first-success primitive: 2 bitwise ops
// per station-word instead of a per-station virtual call per slot.
type SoloScan struct {
	Any   uint64
	Multi uint64
}

// Add accumulates one station's transmit word.
func (s *SoloScan) Add(w uint64) {
	s.Multi |= s.Any & w
	s.Any |= w
}

// Solo returns the bits where exactly one accumulated word was set.
func (s *SoloScan) Solo() uint64 { return s.Any &^ s.Multi }

// String renders the set in {1,5,9} notation, for test failure messages.
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(x int) bool {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&sb, "%d", x)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
