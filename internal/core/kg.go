package core

import (
	"slices"

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

// ladder returns the selectors.RandomLadder arguments of the run's family
// ladder, up to ⌈log k⌉ (or ⌈log n⌉ when k is unknown).
func (a *KGConflictResolution) ladder(p model.Params) (n, maxI int, seed uint64, mult float64) {
	base := p.N
	if p.KnowsK() {
		base = p.K
	}
	maxI = max(1, mathx.Log2Ceil(max(2, base)))
	return p.N, maxI, rng.Derive(p.Seed, 0x96), a.SizeMult
}

// Fleet implements model.Adaptive: a run's stations share one ladder that
// the fleet owns and re-keys per run (selectors.Sequence.Rekey), so a run
// neither builds a ladder nor touches the shared ones.
func (a *KGConflictResolution) Fleet(p model.Params, prev model.Fleet) model.Fleet {
	f, _ := prev.(*kgFleet)
	if f == nil {
		f = new(kgFleet)
	}
	f.lad.Rekey(a.ladder(p))
	f.n, f.st = int64(p.N), f.st[:0]
	return f
}

// Horizon implements Bounded: the even-slot round-robin alone retires one
// station per n slots, so 2·n·k slots always complete; the ladder usually
// finishes in O(k log(n/k)) long before.
func (a *KGConflictResolution) Horizon(n, k int) int64 {
	return 2*int64(n)*int64(max(1, k)) + 64
}

// kgFleet is one kg run's stations, in join order, on the run's ladder.
type kgFleet struct {
	lad selectors.Sequence
	n   int64
	st  []kgStation
}

type kgStation struct {
	id            int
	retired, sent bool
}

// Join implements model.Cohort.
func (f *kgFleet) Join(id int, _ int64, _ *rng.Source) {
	f.st = append(f.st, kgStation{id: id})
}

// JoinAt implements model.Cohort.
func (f *kgFleet) JoinAt(i, id int, wake int64, _ *rng.Source) bool {
	s := kgStation{id: id}
	s.sent = f.transmits(s, wake)
	f.st = slices.Insert(f.st, i, s)
	return s.sent
}

// transmits reports whether s transmits in global slot t: even slots run
// round-robin on component index t/2, odd slots the cyclic ladder on
// component index (t-1)/2.
func (f *kgFleet) transmits(s kgStation, t int64) bool {
	if s.retired {
		return false
	}
	if t%2 == 0 {
		return (t/2)%f.n == int64(s.id-1)
	}
	return f.lad.MemberCyclic((t-1)/2, s.id)
}

// Transmitters implements model.Cohort.
func (f *kgFleet) Transmitters(t int64, dst []int) []int {
	for i := range f.st {
		s := &f.st[i]
		if s.sent = f.transmits(*s, t); s.sent {
			dst = append(dst, s.id)
		}
	}
	return dst
}

// Next implements model.Cohort: a station's retirement depends on what it
// hears, so no attempt is named ahead of time.
func (f *kgFleet) Next(from int64) int64 { return from }

// Observe implements model.Fleet: a station retires once it hears its own
// success.
func (f *kgFleet) Observe(_ int64, d model.Delivery) {
	for i := range f.st {
		s := &f.st[i]
		if fb, id := d.For(s.sent, s.id); fb == model.Success && id == s.id {
			s.retired = true
		}
	}
}

// Looping implements model.Fleet: a kg station never loops.
func (f *kgFleet) Looping() bool { return false }
