package core

import (
	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/selectors"
)

// KGConflictResolution pursues the Komlós–Greenberg objective the paper's
// related-work section contrasts with wake-up (§1, ref [25]): EVERY awake
// station must eventually transmit alone, not just one. The weak channel
// still broadcasts successful messages, so a station can retire the moment
// it hears its own ID succeed — the only feedback this model carries.
//
// Active stations follow the global-clock interleaving of round-robin
// (even slots) with a cyclic concatenation of (n,2^i)-selective families
// (odd slots), mirroring the paper's interleaving idiom: the family ladder
// drives O(k + k log(n/k)) completion for k ≪ n while round-robin caps the
// worst case at O(n) regardless. As stations retire the active set only
// shrinks, so every ladder pass keeps isolating among the survivors.
type KGConflictResolution struct {
	// SizeMult scales the random selective families (0 = default).
	SizeMult float64
}

// NewKGConflictResolution returns the conflict-resolution extension.
func NewKGConflictResolution() *KGConflictResolution { return &KGConflictResolution{} }

// Name implements model.Algorithm.
func (a *KGConflictResolution) Name() string { return "kg_conflict_resolution" }

// Build implements model.Algorithm; KG is inherently feedback-driven.
func (a *KGConflictResolution) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	panic("core: kg_conflict_resolution is adaptive; run it with sim.Engine.RunAll")
}

// ladder builds the shared family ladder up to ⌈log k⌉ (or ⌈log n⌉ when k
// is unknown).
func (a *KGConflictResolution) ladder(p model.Params) *selectors.Sequence {
	base := p.N
	if p.KnowsK() {
		base = p.K
	}
	maxI := mathx.Max(1, mathx.Log2Ceil(mathx.Max(2, base)))
	return selectors.RandomLadder(p.N, maxI, rng.Derive(p.Seed, 0x96), a.SizeMult)
}

// BuildAdaptive implements model.Adaptive.
func (a *KGConflictResolution) BuildAdaptive(p model.Params, id int, wake int64, _ *rng.Source) model.AdaptiveStation {
	return &kgStation{
		id:  id,
		n:   int64(p.N),
		lad: a.ladder(p),
	}
}

// Horizon implements Bounded: the even-slot round-robin alone retires one
// station per n slots, so 2·n·k slots always complete; the ladder usually
// finishes in O(k log(n/k)) long before.
func (a *KGConflictResolution) Horizon(n, k int) int64 {
	return 2*int64(n)*int64(mathx.Max(1, k)) + 64
}

type kgStation struct {
	id      int
	n       int64
	lad     *selectors.Sequence
	retired bool
}

// WillTransmit implements model.AdaptiveStation: even global slots run
// round-robin on component index t/2; odd slots run the cyclic ladder on
// component index (t-1)/2.
func (s *kgStation) WillTransmit(t int64) bool {
	if s.retired {
		return false
	}
	if t%2 == 0 {
		return (t/2)%s.n == int64(s.id-1)
	}
	return s.lad.MemberCyclic((t-1)/2, s.id)
}

// Observe implements model.AdaptiveStation.
func (s *kgStation) Observe(t int64, fb model.Feedback, successID int) {
	if fb == model.Success && successID == s.id {
		s.retired = true
	}
}
