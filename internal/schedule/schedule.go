// Package schedule provides the slot-parity interleaving combinator of
// paper §3: "one can execute round-robin in odd rounds and the other
// algorithm in even rounds". Interleaving two algorithms yields an
// algorithm whose worst-case wake-up time is (twice) the minimum of its
// components' — the mechanism by which wakeup_with_s and wakeup_with_k
// reach Θ(k log(n/k) + 1) across the whole range of k.
//
// Each component runs on its own "component clock": global slots of its
// parity, renumbered 0, 1, 2, …. Wake times are mapped to the first
// component slot at or after the global wake. The mapping coarsens wake
// times by at most one global slot, which only merges near-simultaneous
// joiners into the same component batch and never delays a station past a
// slot it could legally use.
package schedule

import (
	"fmt"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// FirstAtOrAfter returns the smallest t' >= t with t' ≡ parity (mod 2).
// parity must be 0 or 1; t must be >= 0.
func FirstAtOrAfter(t int64, parity int64) int64 {
	if parity != 0 && parity != 1 {
		panic("schedule: parity must be 0 or 1")
	}
	if t < 0 {
		panic("schedule: negative time")
	}
	if t%2 == parity {
		return t
	}
	return t + 1
}

// ComponentIndex maps a global slot t of the given parity to its component
// clock index (t - parity) / 2.
func ComponentIndex(t int64, parity int64) int64 {
	if t%2 != parity {
		panic(fmt.Sprintf("schedule: slot %d does not have parity %d", t, parity))
	}
	return (t - parity) / 2
}

// GlobalIndex is the inverse of ComponentIndex: component index c of the
// given parity occupies global slot 2c + parity.
func GlobalIndex(c int64, parity int64) int64 {
	if parity != 0 && parity != 1 {
		panic("schedule: parity must be 0 or 1")
	}
	if c < 0 {
		panic("schedule: negative component index")
	}
	return 2*c + parity
}

// MapParams rewrites knowledge parameters into a component clock: a known
// global start S becomes the component index of the first component slot at
// or after S. N, K and Seed pass through (Seed is re-derived by the caller
// so components draw independent randomness).
func MapParams(p model.Params, parity int64, seed uint64) model.Params {
	q := p
	q.Seed = seed
	if p.KnowsS() {
		q.S = ComponentIndex(FirstAtOrAfter(p.S, parity), parity)
	}
	return q
}

// Interleaved runs Even on even global slots and Odd on odd global slots.
type Interleaved struct {
	name string
	even model.Algorithm
	odd  model.Algorithm
}

// NewInterleaved builds the combinator. The conventional order in the paper
// is Interleave(round-robin, X): round-robin on even slots, X on odd slots;
// either order preserves the asymptotics.
func NewInterleaved(name string, even, odd model.Algorithm) *Interleaved {
	if even == nil || odd == nil {
		panic("schedule: nil component algorithm")
	}
	return &Interleaved{name: name, even: even, odd: odd}
}

// Name implements model.Algorithm.
func (il *Interleaved) Name() string { return il.name }

// Even returns the even-slot component (for tests and ablations).
func (il *Interleaved) Even() model.Algorithm { return il.even }

// Odd returns the odd-slot component.
func (il *Interleaved) Odd() model.Algorithm { return il.odd }

// Build implements model.Algorithm by building both component schedules on
// their component clocks and dispatching on slot parity.
func (il *Interleaved) Build(p model.Params, id int, wake int64, src *rng.Source) model.TransmitFunc {
	evenParams := MapParams(p, 0, rng.Derive(p.Seed, 0xe0))
	oddParams := MapParams(p, 1, rng.Derive(p.Seed, 0x0d))

	evenWake := ComponentIndex(FirstAtOrAfter(wake, 0), 0)
	oddWake := ComponentIndex(FirstAtOrAfter(wake, 1), 1)

	var evenSrc, oddSrc *rng.Source
	if src != nil {
		// Both child streams live in one allocation; the even one draws
		// first.
		children := new([2]rng.Source)
		children[0].Reseed(rng.Derive(src.Uint64(), 0xe0))
		children[1].Reseed(rng.Derive(src.Uint64(), 0x0d))
		evenSrc, oddSrc = &children[0], &children[1]
	}
	fe := il.even.Build(evenParams, id, evenWake, evenSrc)
	fo := il.odd.Build(oddParams, id, oddWake, oddSrc)

	return func(t int64) bool {
		if t%2 == 0 {
			c := ComponentIndex(t, 0)
			if c < evenWake {
				return false
			}
			return fe(c)
		}
		c := ComponentIndex(t, 1)
		if c < oddWake {
			return false
		}
		return fo(c)
	}
}
