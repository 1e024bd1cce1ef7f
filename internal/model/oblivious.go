package model

import (
	"math"

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

// Never is the NextFunc result of a station that transmits in no slot at or
// after the queried one.
const Never int64 = math.MaxInt64

// NextFunc is a station's schedule in closed form: NextFunc(from) returns
// the first slot t ≥ from in which the station transmits, or Never. It is
// queried for from ≥ 0.
type NextFunc func(from int64) int64

// Sparse is the optional Algorithm extension of schedules that can name
// their next transmission directly. The engine steps such an algorithm
// through a Cohort that keeps every joined station's next attempt, so that
// it can jump over slots in which nobody transmits instead of asking every
// awake station about every slot. BuildNext(p, id, wake, src) must satisfy,
// for every from ≥ 0:
//
//   - NextFunc(from) is the first t ≥ from at which Build(p, id, wake,
//     src')(t) returns true, or Never when there is none, where src' is a
//     source in the same state as src;
//   - it draws from src exactly what Build draws, in the same order, so a
//     station's stream — and every later draw from it — is the same on both
//     paths;
//   - the result depends only on state fixed when BuildNext returns: a
//     closure may cache (a cursor, say) but never answers differently for
//     the order in which it is queried.
type Sparse interface {
	Algorithm
	BuildNext(p Params, id int, wake int64, src *rng.Source) NextFunc
}

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
// every oblivious run of such an algorithm through its cohort, unless the
// algorithm is also Sparse.
//
// Cohort(p, prev) returns an empty cohort for params p; it may reuse prev,
// a cohort an earlier call returned (nil at first), so that a warm engine
// allocates nothing per trial. The cohort's answers must equal Build's:
// with stations joined as the engine wakes them, Transmitters(t) lists in
// join order exactly the stations whose Build(p, id, wake, src)(t) is true,
// and each join draws from src exactly what Build draws.
type Batched interface {
	Algorithm
	Cohort(p Params, prev Cohort) Cohort
}

// Cohort is one run's oblivious stations, in join order; it is the only
// way the engine asks an oblivious run who transmits. A Batched algorithm
// supplies its own, and the engine wraps every other algorithm's BuildNext
// or Build in one. The engine drives a cohort forward in time: at every
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
