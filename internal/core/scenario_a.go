package core

import (
	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/schedule"
	"nsmac/internal/selectors"
)

// SelectAmongFirst is the §3 component algorithm for Scenario A (known
// start time s): only stations woken at slot s participate; the others stay
// silent for the whole execution. Participants transmit according to the
// concatenation of (n,2^j)-selective families for j = 1, 2, …, ⌈log n⌉,
// positions counted from s, repeated cyclically as a safety net (the
// selectivity property guarantees success within the ⌈log |X|⌉-th family of
// the first pass).
//
// Standalone it is only correct when some station wakes exactly at the
// advertised s (true by definition of s); wakeup_with_s interleaves it with
// round-robin, which also covers the large-k regime.
type SelectAmongFirst struct {
	// SizeMult scales the random selective families (0 = default).
	SizeMult float64
}

// NewSelectAmongFirst returns the component with default family sizes.
func NewSelectAmongFirst() *SelectAmongFirst { return &SelectAmongFirst{} }

// Name implements model.Algorithm.
func (*SelectAmongFirst) Name() string { return "select_among_the_first" }

// ladder returns the selectors.RandomLadder arguments of the (n,2^j)
// concatenation shared by all stations: it depends only on (params,
// construction), never on the station, as the globally synchronous model
// requires.
func (a *SelectAmongFirst) ladder(p model.Params) (n, maxI int, seed uint64, mult float64) {
	return p.N, max(1, mathx.Log2Ceil(max(2, p.N))), rng.Derive(p.Seed, 0x5af), a.SizeMult
}

// Build implements model.Algorithm.
func (a *SelectAmongFirst) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	if !p.KnowsS() {
		panic("core: select_among_the_first requires known s (Scenario A)")
	}
	if wake != p.S {
		// Woken after s: remain silent for the whole execution (§3).
		return func(int64) bool { return false }
	}
	lad := selectors.RandomLadder(a.ladder(p))
	s := p.S
	return func(t int64) bool {
		if t < s {
			return false
		}
		return lad.MemberCyclic(t-s, id)
	}
}

// Cohort implements model.Batched: the cohort's own ladder is re-keyed once
// per run, and only the stations woken at s are ever operative.
func (a *SelectAmongFirst) Cohort(p model.Params, prev model.Cohort) model.Cohort {
	if !p.KnowsS() {
		panic("core: select_among_the_first requires known s (Scenario A)")
	}
	c := newLadderCohort(prev, p.S, goAtStart)
	c.lad.Rekey(a.ladder(p))
	return c
}

// Horizon implements Bounded: the first pass through the ladder ends within
// O(k log(n/k) + k); a guarded multiple plus the full ladder length covers
// unlucky seeds.
func (a *SelectAmongFirst) Horizon(n, k int) int64 {
	lad := selectors.RandomLadder(a.ladder(model.Params{N: n, S: 0}))
	return 2*lad.Length() + 16
}

// NewWakeupWithS assembles the §3 algorithm wakeup_with_s: round-robin
// interleaved with select_among_the_first. Worst-case wake-up time
// Θ(min{n−k+1, k log(n/k)+k}) = Θ(k log(n/k)+1).
func NewWakeupWithS() *schedule.Interleaved {
	return schedule.NewInterleaved("wakeup_with_s", NewRoundRobin(), NewSelectAmongFirst())
}

// WakeupWithSHorizon is the safe simulation cap for wakeup_with_s: the
// even-slot round-robin component alone succeeds within 2(n+1) global slots
// of the first wake-up.
func WakeupWithSHorizon(n, k int) int64 { return 2*int64(n) + 8 }
