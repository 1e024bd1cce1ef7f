package core

import (
	"slices"

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

// Cohort implements model.Batched.
func (RoundRobin) Cohort(p model.Params, prev model.Cohort) model.Cohort {
	c, _ := prev.(*rrCohort)
	if c == nil {
		c = new(rrCohort)
	}
	c.n, c.ids = int64(p.N), c.ids[:0]
	return c
}

// rrCohort is RoundRobin's model.Cohort: the joined stations, each of which
// transmits in the slots of its residue. Residues are distinct, so a slot
// has at most one transmitter and join order never shows: the IDs are kept
// sorted, and a slot or a next attempt is one binary search.
type rrCohort struct {
	n   int64
	ids []int
}

// Join implements model.Cohort. Build draws nothing from the stream.
func (c *rrCohort) Join(id int, _ int64, _ *rng.Source) { c.insert(id) }

// JoinAt implements model.Cohort.
func (c *rrCohort) JoinAt(_, id int, wake int64, _ *rng.Source) bool {
	c.insert(id)
	return wake%c.n == int64(id-1)
}

func (c *rrCohort) insert(id int) {
	i, _ := slices.BinarySearch(c.ids, id)
	c.ids = slices.Insert(c.ids, i, id)
}

// Transmitters implements model.Cohort: the station whose residue t is, if
// it has joined.
func (c *rrCohort) Transmitters(t int64, dst []int) []int {
	id := int(t%c.n) + 1
	if _, ok := slices.BinarySearch(c.ids, id); ok {
		dst = append(dst, id)
	}
	return dst
}

// Next implements model.Cohort: the first slot ≥ from whose residue belongs
// to a joined station, wrapping to the next period past the last one.
func (c *rrCohort) Next(from int64) int64 {
	if len(c.ids) == 0 {
		return model.Never
	}
	r := from % c.n
	i, _ := slices.BinarySearch(c.ids, int(r)+1)
	if i == len(c.ids) {
		return from - r + c.n + int64(c.ids[0]-1)
	}
	return from - r + int64(c.ids[i]-1)
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
