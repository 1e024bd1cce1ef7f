package model

import (
	"math"

	"nsmac/internal/rng"
)

// ScheduleClass is what kernel.Class reports about a pairing the kernel
// computes in closed form. Each such trial's outcome comes from its own wake
// pattern and channel draws, so an eligible pairing always reports
// SeedSensitive. The type is kept, with its one field, so that callers
// outside this module that read kernel.Class's result (the benchmark's
// per-cell route table) keep compiling.
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
// their next transmission directly. The engine uses it to jump over slots
// in which nobody transmits instead of asking every awake station about
// every slot. BuildNext(p, id, wake, src) must satisfy, for every from ≥ 0:
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
