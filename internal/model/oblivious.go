package model

import (
	"math"

	"nsmac/internal/rng"
)

// ScheduleClass is what kernel.Class reports about a pairing the bitset
// slot kernel can execute. The kernel runs only feedback-epoch stations,
// which are built afresh every trial, so an eligible pairing always reports
// SeedSensitive. The type is kept, with its one field, so that callers
// outside this module that read kernel.Class's result (the benchmark's
// per-cell route table) keep compiling.
type ScheduleClass struct {
	// SeedSensitive is true when the rendered schedule depends on the trial
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

// WakeProber is the optional Algorithm extension of schedules that can say,
// without building one, whether a station woken at a slot transmits in that
// very slot. The white-box spoiler asks this of every candidate station at
// every would-be success, so a schedule built only to be asked about one
// slot is the cost it removes. TransmitsAtWake(p, id, wake, src) must
// satisfy:
//
//   - it returns Build(p, id, wake, src')(wake), where src' is a source in
//     the same state as src;
//   - it may draw from src, and need not draw what Build draws: the caller
//     throws the source away, so a probe never feeds a station's stream.
type WakeProber interface {
	Algorithm
	TransmitsAtWake(p Params, id int, wake int64, src *rng.Source) bool
}
