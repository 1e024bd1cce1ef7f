package core

import (
	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/schedule"
	"nsmac/internal/selectors"
)

// WaitAndGo is the §4 component algorithm for Scenario B (known bound k).
// The schedule F = 〈F_1, …, F_⌈log k⌉〉 concatenates (n,2^i)-selective
// families; global round t corresponds to set F_{t mod z} where z = |F|.
// A station woken at round j waits silently until the smallest σ ≥ j such
// that F_{σ mod z} is the first set of one of the families, then transmits
// according to F_{t mod z} for every t ≥ σ.
//
// The wait barrier is the crux: it pins the set of stations participating
// in each family for that family's whole execution, which is what the
// selectivity property needs. Ablation T8a removes it and watches the
// guarantee break.
type WaitAndGo struct {
	// SizeMult scales the random selective families (0 = default).
	SizeMult float64
	// DisableWait removes the boundary wait (ablation only: stations start
	// transmitting immediately at their wake slot).
	DisableWait bool
}

// NewWaitAndGo returns the component with default family sizes.
func NewWaitAndGo() *WaitAndGo { return &WaitAndGo{} }

// Name implements model.Algorithm.
func (a *WaitAndGo) Name() string {
	if a.DisableWait {
		return "wait_and_go(no-wait)"
	}
	return "wait_and_go"
}

// ladder builds 〈F_1..F_⌈log k⌉〉, identical for every station.
func (a *WaitAndGo) ladder(p model.Params) *selectors.Sequence {
	maxI := mathx.Max(1, mathx.Log2Ceil(mathx.Max(2, p.K)))
	return selectors.RandomLadder(p.N, maxI, rng.Derive(p.Seed, 0xa60), a.SizeMult)
}

// Build implements model.Algorithm.
func (a *WaitAndGo) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	if !p.KnowsK() {
		panic("core: wait_and_go requires known k (Scenario B)")
	}
	lad := a.ladder(p)
	sigma := wake
	if !a.DisableWait {
		sigma = lad.NextBoundary(wake)
	}
	return func(t int64) bool {
		if t < sigma {
			return false
		}
		return lad.MemberCyclic(t, id)
	}
}

// FirstWaker implements model.WakeProber: off a family boundary every
// station woken there is silent until the next one, so nobody qualifies;
// on it (or with the wait disabled) the answer is the first untaken member
// of the ladder's set at the wake slot.
func (a *WaitAndGo) FirstWaker(p model.Params, wake int64, _ uint64, taken []bool) int {
	if !p.KnowsK() {
		panic("core: wait_and_go requires known k (Scenario B)")
	}
	lad := a.ladder(p)
	if !a.DisableWait && lad.NextBoundary(wake) != wake {
		return 0
	}
	for id := 1; id <= p.N; id++ {
		if !taken[id] && lad.MemberCyclic(wake, id) {
			return id
		}
	}
	return 0
}

// Horizon implements Bounded: worst case, a station waits almost a full
// period z for the next boundary and then one full pass of the schedule
// succeeds; 3z plus slack is a guarded cap.
func (a *WaitAndGo) Horizon(n, k int) int64 {
	lad := a.ladder(model.Params{N: n, K: k, S: -1})
	return 3*lad.Length() + 16
}

// NewWakeupWithK assembles the §4 algorithm wakeup_with_k: round-robin
// interleaved with wait_and_go. Worst-case wake-up time
// Θ(min{n−k+1, k+k log(n/k)}) = Θ(k log(n/k)+1).
func NewWakeupWithK() *schedule.Interleaved {
	return schedule.NewInterleaved("wakeup_with_k", NewRoundRobin(), NewWaitAndGo())
}

// WakeupWithKHorizon is the safe simulation cap for wakeup_with_k: the
// even-slot round-robin component alone succeeds within 2(n+1) global
// slots of the first wake-up.
func WakeupWithKHorizon(n, k int) int64 { return 2*int64(n) + 8 }
