package model

import (
	"math"
	"slices"

	"nsmac/internal/rng"
)

// ScheduleClass is what kernel.Class reports about a pairing that
// sim.Engine.Run finishes in closed form. Each such trial's outcome comes
// from its own wake pattern and channel draws, so such a pairing always
// reports SeedSensitive. The type is kept, with its one field, only for
// the benchmark's per-cell route table, the one reader of kernel.Class.
type ScheduleClass struct {
	// SeedSensitive is true when a trial's outcome depends on the trial
	// seed, so nothing may be reused across trials.
	SeedSensitive bool
}

// Never is a Cohort's Next, or a station's next attempt, when no joined
// station transmits again.
const Never int64 = math.MaxInt64

// WakeProber is the optional Algorithm extension of schedules that can
// name, without building any, the first station that would transmit in the
// very slot it wakes. The white-box spoiler asks this once at every
// would-be success, so the per-slot work (a window or boundary gate, a
// column's geometry) is done once for the whole universe instead of once
// per candidate station, and no schedule is built only to be asked about
// one slot. FirstWaker(p, wake, seed, taken) must return the smallest id in
// [1, p.N] with !taken[id] such that Build(p, id, wake,
// rng.New(rng.Derive(seed, id)))(wake) is true — station id's own stream, as
// the engine derives it from the run seed — or 0 when there is none. taken
// has length p.N+1 and is only read.
type WakeProber interface {
	Algorithm
	FirstWaker(p Params, wake int64, seed uint64, taken []bool) int
}

// Batched is the optional Algorithm extension of schedules whose stations
// the engine can evaluate together, one call per slot for a whole run,
// instead of one TransmitFunc call per (station, slot). The engine steps
// every oblivious run of such an algorithm through its cohort. A cohort
// shares per-slot work across its stations (RPD's coins step by increment,
// wakeup(n)'s stations in one row share the column's hash key,
// wait_and_go's and select_among_the_first's operative stations share the
// ladder set's key, and wakeup_with_k and wakeup_with_s compose their
// components' cohorts), and one that knows its stations' next attempts
// returns the earliest from Next, so the engine skips the silent slots
// before it (BEB, round-robin, localssf).
//
// Cohort(p, prev) returns an empty cohort for params p; it may reuse prev,
// a cohort an earlier call returned (nil at first), so that a warm engine
// allocates nothing per trial. The cohort's answers must equal Build's:
// with stations joined as the engine wakes them, Transmitters(t) lists in
// join order exactly the stations whose Build(p, id, wake, src)(t) is true,
// and each join draws from src exactly what Build draws, and reads src
// only while it runs.
type Batched interface {
	Algorithm
	Cohort(p Params, prev Cohort) Cohort
}

// Cohort is one run's oblivious stations, in join order; it is the only
// way the engine asks an oblivious run who transmits. A Batched algorithm
// supplies its own, and the engine wraps every other algorithm's Build in
// a BuildCohort. The engine drives a cohort forward in time: at every
// slot t from the first wake on, it joins the stations that wake at t, then
// either asks Transmitters(t) once or skips t. It skips slots t to u-1 only
// when Next(t) ≥ u and the channel lets silent slots be accounted without
// resolving them; it never skips a wake. So Transmitters is asked about
// increasing slots, each slot at most once, and about every slot when Next
// always returns its argument. A cohort that advances its stations by one
// slot per call, instead of computing each slot from scratch, must
// therefore have Next return its argument.
type Cohort interface {
	// Join appends station id, woken at slot wake, to the join order. No
	// slot before wake is asked about after the join.
	Join(id int, wake int64, src *rng.Source)
	// Transmitters appends to dst the IDs of the stations that transmit in
	// slot t, in join order, and returns it.
	Transmitters(t int64, dst []int) []int
	// JoinAt inserts station id at position i of the join order, woken at
	// the slot Transmitters was last asked about, and reports whether it
	// transmits in that slot. The spoiler injects stations through it.
	JoinAt(i, id int, wake int64, src *rng.Source) bool
	// Next returns a slot u ≥ from such that no joined station transmits
	// in any slot from from to u-1. Returning from is always correct.
	Next(from int64) int64
}

// BuildCohort is the Cohort of an algorithm without a cohort of its own:
// each station's Build closure, asked about every slot. The engine steps such an algorithm through one, and so
// does schedule.Interleaved's cohort for such a component.
type BuildCohort struct {
	algo     Algorithm
	p        Params
	stations []builtStation
}

type builtStation struct {
	id       int
	transmit TransmitFunc
}

// Reset empties the cohort for a run of algo with params p and room for k
// stations.
func (c *BuildCohort) Reset(algo Algorithm, p Params, k int) {
	c.algo, c.p = algo, p
	c.stations = slices.Grow(c.stations[:0], k)
}

// Join implements Cohort.
func (c *BuildCohort) Join(id int, wake int64, src *rng.Source) {
	c.stations = append(c.stations, builtStation{id, c.algo.Build(c.p, id, wake, src)})
}

// JoinAt implements Cohort.
func (c *BuildCohort) JoinAt(i, id int, wake int64, src *rng.Source) bool {
	st := builtStation{id, c.algo.Build(c.p, id, wake, src)}
	c.stations = slices.Insert(c.stations, i, st)
	return st.transmit(wake)
}

// Transmitters implements Cohort.
func (c *BuildCohort) Transmitters(t int64, dst []int) []int {
	for _, st := range c.stations {
		if st.transmit(t) {
			dst = append(dst, st.id)
		}
	}
	return dst
}

// Next implements Cohort: a closure names no attempt ahead of time.
func (c *BuildCohort) Next(from int64) int64 { return from }
