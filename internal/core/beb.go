package core

import (
	"math/bits"
	"slices"

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
	return max(1, mathx.Log2Ceil(max(2, p.N)))
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

// Cohort implements model.Batched: one flat slice of the joined stations'
// next attempts. A station's record holds its window r, the window's first
// offset and the attempt slot in it; an attempt moves it to window r+1 with
// one hash, and Next is the earliest attempt of any station, so the engine
// jumps over the silent slots before it.
func (a *BEB) Cohort(p model.Params, prev model.Cohort) model.Cohort {
	c, ok := prev.(*bebCohort)
	if !ok {
		c = new(bebCohort)
	}
	c.p, c.capLog = p, a.capFor(p)
	c.stations, c.first = c.stations[:0], model.Never
	return c
}

// bebCohort is BEB's model.Cohort: the joined stations in join order and
// the earliest of their next attempts.
type bebCohort struct {
	p        model.Params
	capLog   int
	stations []bebStation
	first    int64
}

// bebStation is one station's attempt in its current window r: the window
// starts start slots after the wake, and the attempt is at slot at.
type bebStation struct {
	personal        uint64
	wake, start, at int64
	r, id           int
}

// station is station id, woken at wake, at its attempt in window 0. It
// draws the personal key from src as Build does.
func (c *bebCohort) station(id int, wake int64, src *rng.Source) bebStation {
	st := bebStation{personal: bebPersonal(c.p, id, src), wake: wake, id: id}
	st.at = wake + bebAttempt(st.personal, 0, bebWidth(0, c.capLog), id)
	return st
}

// attempted moves st past its attempt, to window r+1.
func (c *bebCohort) attempted(st *bebStation) {
	st.start += bebWidth(st.r, c.capLog)
	st.r++
	st.at = st.wake + st.start + bebAttempt(st.personal, st.r, bebWidth(st.r, c.capLog), st.id)
}

// Join implements model.Cohort.
func (c *bebCohort) Join(id int, wake int64, src *rng.Source) {
	st := c.station(id, wake, src)
	c.stations = append(c.stations, st)
	c.first = min(c.first, st.at)
}

// JoinAt implements model.Cohort: the station's attempt at its wake slot,
// if it makes one, is spent in that slot.
func (c *bebCohort) JoinAt(i, id int, wake int64, src *rng.Source) bool {
	st := c.station(id, wake, src)
	sent := st.at == wake
	if sent {
		c.attempted(&st)
	}
	c.stations = slices.Insert(c.stations, i, st)
	c.first = min(c.first, st.at)
	return sent
}

// Transmitters implements model.Cohort: it gathers the stations whose
// attempt is at slot t and moves each to its next window.
func (c *bebCohort) Transmitters(t int64, dst []int) []int {
	first := model.Never
	for i := range c.stations {
		st := &c.stations[i]
		if st.at == t {
			dst = append(dst, st.id)
			c.attempted(st)
		}
		first = min(first, st.at)
	}
	c.first = first
	return dst
}

// Next implements model.Cohort.
func (c *bebCohort) Next(from int64) int64 { return max(c.first, from) }

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

// bebWidth is the width of window r: 2^(r+1), capped at 2^capLog.
func bebWidth(r, capLog int) int64 { return int64(1) << uint(min(r+1, capLog)) }

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

// Horizon implements Bounded: no theorem backs BEB; the cap covers the
// full doubling phase (≈ 2^(capLog+1) slots) plus several hundred capped
// windows, which empirically suffices for small k.
func (a *BEB) Horizon(n, k int) int64 {
	capLog := min(a.capFor(model.Params{N: n}), 20)
	return 8*(int64(1)<<uint(capLog+1)) + 4096
}
