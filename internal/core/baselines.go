package core

import (
	"slices"

	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/selectors"
)

// LocalSSF is a heuristic baseline standing in for Chlebus et al.'s
// O(k log² n) locally-synchronized wake-up protocol (paper §1, ref [9];
// README "Departures from the paper", item 3). Each station ignores the global clock
// entirely and runs, from its LOCAL wake time, the cyclic concatenation of
// Kautz–Singleton (n,2^i)-strongly-selective families for i = 1..MaxI.
//
// Because stations are shifted arbitrarily relative to one another, no
// family-level selectivity guarantee survives — strong selectivity makes
// isolation likely (every station has many private sets) but the algorithm
// is measured, not proven. It exists to give T6 the "best locally
// synchronized prior work" comparison curve the paper argues it improves
// on.
type LocalSSF struct {
	// MaxI caps the strongest family at (n, 2^MaxI); 0 derives ⌈log k⌉
	// from known k, falling back to min(6, ⌈log n⌉) to keep the quadratic
	// KS lengths in check.
	MaxI int
}

// NewLocalSSF returns the baseline with automatic MaxI.
func NewLocalSSF() *LocalSSF { return &LocalSSF{} }

// Name implements model.Algorithm.
func (a *LocalSSF) Name() string { return "local_ssf[heuristic]" }

// maxI resolves the ladder height for the given params.
func (a *LocalSSF) maxI(p model.Params) int {
	if a.MaxI > 0 {
		return a.MaxI
	}
	if p.KnowsK() {
		return max(1, mathx.Log2Ceil(max(2, p.K)))
	}
	return min(6, max(1, mathx.Log2Ceil(max(2, p.N))))
}

// Build implements model.Algorithm: position within the schedule is t-wake,
// the station's local clock — the defining difference from WaitAndGo. A
// KSCursor walks the ladder, so slot-by-slot queries evaluate the station's
// codeword once per q-slot position block.
func (a *LocalSSF) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	cur := selectors.KSLadder(p.N, a.maxI(p)).KSCursor(id)
	return func(t int64) bool {
		if t < wake {
			return false
		}
		return cur.Member(t - wake)
	}
}

// Cohort implements model.Batched. The ladder is taken, and checked to be
// Kautz–Singleton, once per run rather than once per station.
func (a *LocalSSF) Cohort(p model.Params, prev model.Cohort) model.Cohort {
	c, _ := prev.(*localSSFCohort)
	if c == nil {
		c = new(localSSFCohort)
	}
	c.ladder = selectors.KSLadder(p.N, a.maxI(p))
	c.ladder.CheckKS()
	c.stations, c.first = c.stations[:0], model.Never
	return c
}

// localSSFCohort is LocalSSF's model.Cohort: the joined stations in join
// order, each with its cursor and next attempt, and the earliest of those
// attempts. Every q-slot position block of the ladder holds one of a
// station's member slots, so its cursor names the next one directly.
type localSSFCohort struct {
	ladder   *selectors.Sequence
	stations []localSSFStation
	first    int64
}

type localSSFStation struct {
	id       int
	wake, at int64
	cur      selectors.KSCursor
}

// attempt returns st's first attempt at or after slot from ≥ st.wake.
func (st *localSSFStation) attempt(from int64) int64 {
	return st.wake + st.cur.Next(from-st.wake)
}

// station is station id, woken at wake, at its first attempt.
func (c *localSSFCohort) station(id int, wake int64) localSSFStation {
	st := localSSFStation{id: id, wake: wake}
	st.cur.Reset(c.ladder, id)
	st.at = st.attempt(wake)
	return st
}

// Join implements model.Cohort. Build draws nothing from the stream.
func (c *localSSFCohort) Join(id int, wake int64, _ *rng.Source) {
	st := c.station(id, wake)
	c.stations = append(c.stations, st)
	c.first = min(c.first, st.at)
}

// JoinAt implements model.Cohort: the station's attempt at its wake slot,
// if it makes one, is spent in that slot.
func (c *localSSFCohort) JoinAt(i, id int, wake int64, _ *rng.Source) bool {
	st := c.station(id, wake)
	sent := st.at == wake
	if sent {
		st.at = st.attempt(wake + 1)
	}
	c.stations = slices.Insert(c.stations, i, st)
	c.first = min(c.first, st.at)
	return sent
}

// Transmitters implements model.Cohort: it gathers the stations whose
// attempt is at slot t and moves each to its next one.
func (c *localSSFCohort) Transmitters(t int64, dst []int) []int {
	first := model.Never
	for i := range c.stations {
		st := &c.stations[i]
		if st.at == t {
			dst = append(dst, st.id)
			st.at = st.attempt(t + 1)
		}
		first = min(first, st.at)
	}
	c.first = first
	return dst
}

// Next implements model.Cohort: the earliest attempt.
func (c *localSSFCohort) Next(from int64) int64 { return max(c.first, from) }

// Horizon implements Bounded: a generous empirical cap of several full
// cycles (no theorem backs this baseline; the cap is for the simulator's
// termination only).
func (a *LocalSSF) Horizon(n, k int) int64 {
	p := model.Params{N: n, K: k, S: -1}
	lad := selectors.KSLadder(n, a.maxI(p))
	return 16*lad.Length() + 64
}
