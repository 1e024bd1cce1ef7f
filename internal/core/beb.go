package core

import (
	"math/bits"

	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// BEB is binary exponential backoff, the contention mechanism of the Aloha
// and Ethernet systems the paper's introduction motivates from ([1, 2]).
// Each station repeatedly attempts: it transmits once within a contention
// window, doubles the window on presumed failure (no success heard — this
// channel carries no collision feedback, so stations infer failure from
// the absence of their own success), and caps the window at CapLog
// doublings.
//
// BEB carries no worst-case guarantee in this model — it is the practical
// baseline the paper's deterministic algorithms are an answer to, included
// for the T6 comparison.
type BEB struct {
	// CapLog caps the window at 2^CapLog slots (0 = 2⌈log n⌉ like RPD's ℓ).
	CapLog int
}

// NewBEB returns binary exponential backoff with the default cap.
func NewBEB() *BEB { return &BEB{} }

// Name implements model.Algorithm.
func (a *BEB) Name() string { return "beb" }

// capFor resolves the window cap for params: ⌈log n⌉ doublings by default,
// i.e. a steady-state attempt density of ≈ 1/n per slot (Ethernet's BEB
// caps at 2^10 similarly).
func (a *BEB) capFor(p model.Params) int {
	if a.CapLog > 0 {
		return a.CapLog
	}
	return mathx.Max(1, mathx.Log2Ceil(mathx.Max(2, p.N)))
}

// Build implements model.Algorithm. The schedule is sampled once at build
// time (attempt slots drawn per window), making the returned function pure
// and the run reproducible however the engine queries it.
func (a *BEB) Build(p model.Params, id int, wake int64, src *rng.Source) model.TransmitFunc {
	personal := bebPersonal(p, id, src)
	capLog := a.capFor(p)
	// Attempt schedule: window w_r = 2^min(r+1, capLog); the station
	// transmits at one uniformly chosen slot inside each window. Windows
	// are laid back to back from the wake slot; the offset inside window r
	// is a pure hash so the whole schedule is a function of (id, wake, r).
	// Every value the closure reads is fixed at build time, so it stays a
	// single allocation and any query order sees the same schedule.
	return func(t int64) bool {
		if t < wake {
			return false
		}
		off := t - wake
		r, start, w := bebWindow(off, capLog)
		return off == start+bebAttempt(personal, r, w, id)
	}
}

// BuildNext implements model.Sparse: the attempt in the window holding
// from, or — when that attempt is already behind from — the next window's.
func (a *BEB) BuildNext(p model.Params, id int, wake int64, src *rng.Source) model.NextFunc {
	personal := bebPersonal(p, id, src)
	capLog := a.capFor(p)
	return func(from int64) int64 {
		off := max(from-wake, 0)
		r, start, w := bebWindow(off, capLog)
		if at := start + bebAttempt(personal, r, w, id); at >= off {
			return wake + at
		}
		r, start, w = bebWindow(start+w, capLog)
		return wake + start + bebAttempt(personal, r, w, id)
	}
}

// bebPersonal is the station's personal hash key: one draw from its
// stream, or a derivation from the params seed when built without one.
func bebPersonal(p model.Params, id int, src *rng.Source) uint64 {
	if src != nil {
		return src.Uint64()
	}
	return rng.Derive(p.Seed, uint64(id)*0xbeb)
}

// bebAttempt is the offset, inside window r of width w, of the station's
// attempt in that window. w is a power of two: the mask is the hash mod w.
func bebAttempt(personal uint64, r int, w int64, id int) int64 {
	return int64(rng.Hash3(personal, uint64(r), uint64(w), uint64(id)) & uint64(w-1))
}

// bebWindow locates offset off (slots since wake) in BEB's window sequence
// and returns the window index r, its first offset and its width. Windows
// 0..capLog-1 double (widths 2, 4, …, 2^capLog, so window r starts at
// 2^(r+1)-2); every later window is 2^capLog wide.
func bebWindow(off int64, capLog int) (r int, start, w int64) {
	capped := int64(1)<<uint(capLog) - 2 // first offset of window capLog-1
	if off < capped {
		r = bits.Len64(uint64(off)+2) - 2
		return r, int64(1)<<uint(r+1) - 2, int64(1) << uint(r+1)
	}
	w = int64(1) << uint(capLog)
	q := (off - capped) >> uint(capLog)
	return capLog - 1 + int(q), capped + q<<uint(capLog), w
}

// ObliviousClass implements model.Oblivious: this BEB variant samples its
// whole attempt schedule at build time (stations infer failure rather than
// hear it), so the schedule is pure given the personal seed.
func (a *BEB) ObliviousClass() (model.ScheduleClass, bool) {
	return model.ScheduleClass{
		SeedSensitive: true,
		WakeSensitive: true,
		Config:        model.ConfigFields(uint64(a.CapLog)),
	}, true
}

// Horizon implements Bounded: no theorem backs BEB; the cap covers the
// full doubling phase (≈ 2^(capLog+1) slots) plus several hundred capped
// windows, which empirically suffices for small k.
func (a *BEB) Horizon(n, k int) int64 {
	capLog := mathx.Min(a.capFor(model.Params{N: n}), 20)
	return 8*(int64(1)<<uint(capLog+1)) + 4096
}
