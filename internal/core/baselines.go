package core

import (
	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/selectors"
)

// LocalSSF is a heuristic baseline standing in for Chlebus et al.'s
// O(k log² n) locally-synchronized wake-up protocol (paper §1, ref [9];
// DESIGN.md §4 substitution 3). Each station ignores the global clock
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
		return mathx.Max(1, mathx.Log2Ceil(mathx.Max(2, p.K)))
	}
	return mathx.Min(6, mathx.Max(1, mathx.Log2Ceil(mathx.Max(2, p.N))))
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

// BuildNext implements model.Sparse: every q-slot position block of the
// ladder holds one of the station's member slots, so the cursor names the
// next one directly.
func (a *LocalSSF) BuildNext(p model.Params, id int, wake int64, _ *rng.Source) model.NextFunc {
	cur := selectors.KSLadder(p.N, a.maxI(p)).KSCursor(id)
	return func(from int64) int64 {
		return wake + cur.Next(max(from-wake, 0))
	}
}

// ObliviousClass implements model.Oblivious: the Kautz–Singleton ladder is
// fully deterministic (no seed anywhere), and the schedule runs on the
// station's local clock t - wake — the canonical LocalClock shape, so the
// kernel renders the ladder once per station and shifts it per wake.
func (a *LocalSSF) ObliviousClass() (model.ScheduleClass, bool) {
	return model.ScheduleClass{
		WakeSensitive: true,
		LocalClock:    true,
		Config:        model.ConfigFields(uint64(a.MaxI)),
	}, true
}

// Horizon implements Bounded: a generous empirical cap of several full
// cycles (no theorem backs this baseline; the cap is for the simulator's
// termination only).
func (a *LocalSSF) Horizon(n, k int) int64 {
	p := model.Params{N: n, K: k, S: -1}
	lad := selectors.KSLadder(n, a.maxI(p))
	return 16*lad.Length() + 64
}
