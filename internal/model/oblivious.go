package model

import (
	"math"

	"nsmac/internal/rng"
)

// ScheduleClass describes an oblivious algorithm's schedule for memoization
// purposes: what the rendered transmit bitmap of one station depends on
// beyond (params.N, params.K, params.S, id).
type ScheduleClass struct {
	// SeedSensitive is true when the schedule depends on Params.Seed or on
	// bits drawn from the per-station stream (selective-family ladders, the
	// Scenario C matrix, RPD/BEB personal hashes). Seed-sensitive schedules
	// cannot be memoized across trials, because every trial runs under a
	// fresh derived seed, so the kernel leaves them to the slot-by-slot
	// engine.
	SeedSensitive bool
	// WakeSensitive is true when the schedule depends on the station's wake
	// slot. A wake-INsensitive schedule must be queryable — and identical —
	// for every t >= 0 regardless of the wake passed to Build (round-robin's
	// global residue schedule is the canonical example), so one rendered
	// bitmap serves every wake pattern.
	WakeSensitive bool
	// LocalClock refines WakeSensitive: the schedule depends on the wake
	// slot ONLY as a time shift — Build(p, id, w, src)(t) equals
	// Build(p, id, w', src)(t - w + w') for every pair of wakes and every
	// t >= w. Locally-synchronized protocols (stations run their program on
	// their own clock from their own wake) are exactly this shape, and the
	// kernel exploits it: it renders the schedule once in local time and
	// serves every wake by shifting the bitmap, instead of re-rendering per
	// distinct wake. Meaningless when WakeSensitive is false.
	LocalClock bool
	// Config fingerprints every constructor knob that changes the schedule
	// but is not visible in Params or Name() (family size multipliers,
	// backoff caps, ladder heights). Two algorithm values with equal
	// (Name(), Config) must build identical schedules from identical
	// (params, id, wake, stream) inputs.
	Config uint64
}

// Oblivious is the capability interface of the bitset slot kernel: an
// algorithm implements it to advertise that every schedule it builds is a
// pure function of (params, id, wake, slot, per-station stream) — never of
// channel feedback — so the kernel may render the schedule once into a
// packed bitmap and execute slots word-wide.
//
// ObliviousClass returns (class, true) to opt in. Returning ok == false
// (combinators whose components are not all oblivious do this) keeps the
// algorithm on the slot-by-slot engine.
type Oblivious interface {
	Algorithm
	ObliviousClass() (ScheduleClass, bool)
}

// AlgorithmClass resolves an algorithm's schedule class, reporting ok ==
// false for algorithms that do not (or conditionally do not) implement the
// Oblivious capability.
func AlgorithmClass(a Algorithm) (ScheduleClass, bool) {
	o, ok := a.(Oblivious)
	if !ok {
		return ScheduleClass{}, false
	}
	return o.ObliviousClass()
}

// ConfigFields folds an ordered tuple of configuration words into one
// Config fingerprint. The fold is order-sensitive, so distinct knob tuples
// map to distinct fingerprints (up to hash collision over the full 64-bit
// space — acceptable because combinators additionally fold ConfigString of
// component names, and the kernel keys caches on Name() too).
func ConfigFields(parts ...uint64) uint64 {
	h := uint64(len(parts))
	for _, p := range parts {
		h = rng.Mix64(h ^ rng.Mix64(p))
	}
	return h
}

// ConfigFloat maps a float configuration knob to a Config field.
func ConfigFloat(f float64) uint64 { return math.Float64bits(f) }

// ConfigBool maps a boolean configuration knob to a Config field.
func ConfigBool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ConfigString folds a string (component algorithm names, mostly) into a
// Config field.
func ConfigString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return rng.Mix64(h)
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
