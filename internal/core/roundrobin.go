package core

import (
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// Bounded is implemented by algorithms with a proven worst-case wake-up
// bound. Horizon returns a safe simulation cap — a guarded multiple of the
// theoretical bound, measured from the first wake-up — such that failing to
// succeed within it is a bug, not bad luck. k is the number of stations the
// workload will actually wake (use n when unknown).
type Bounded interface {
	Horizon(n, k int) int64
}

// RoundRobin is time-division multiplexing on the global clock: station id
// transmits at slot t iff t ≡ id-1 (mod n). Distinct stations never share a
// residue, so the channel never collides and any awake station gets a solo
// slot within n slots of the first wake-up; the algorithm is optimal for
// k > n/c by Corollary 2.1. It is the even-slot component of both
// wakeup_with_s and wakeup_with_k.
type RoundRobin struct{}

// NewRoundRobin returns the round-robin algorithm.
func NewRoundRobin() RoundRobin { return RoundRobin{} }

// Name implements model.Algorithm.
func (RoundRobin) Name() string { return "round_robin" }

// Build implements model.Algorithm.
func (RoundRobin) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	n := int64(p.N)
	slot := int64(id - 1)
	return func(t int64) bool { return t%n == slot }
}

// BuildNext implements model.Sparse: the first slot ≥ from in residue
// id-1 mod n.
func (RoundRobin) BuildNext(p model.Params, id int, wake int64, _ *rng.Source) model.NextFunc {
	n := int64(p.N)
	slot := int64(id - 1)
	return func(from int64) int64 {
		t := from - from%n + slot
		if t < from {
			t += n
		}
		return t
	}
}

// FirstWaker implements model.WakeProber: the only station that transmits
// at its wake slot is the one whose residue the slot is.
func (RoundRobin) FirstWaker(p model.Params, wake int64, _ uint64, taken []bool) int {
	id := int(wake%int64(p.N)) + 1
	if taken[id] {
		return 0
	}
	return id
}

// Horizon implements Bounded: success within n slots of the first wake-up,
// plus slack.
func (RoundRobin) Horizon(n, k int) int64 { return int64(n) + 2 }
