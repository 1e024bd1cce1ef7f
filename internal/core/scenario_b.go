package core

import (
	"slices"

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

// ladder returns the selectors.RandomLadder arguments of 〈F_1..F_⌈log k⌉〉,
// identical for every station.
func (a *WaitAndGo) ladder(p model.Params) (n, maxI int, seed uint64, mult float64) {
	return p.N, max(1, mathx.Log2Ceil(max(2, p.K))), rng.Derive(p.Seed, 0xa60), a.SizeMult
}

// Build implements model.Algorithm.
func (a *WaitAndGo) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	if !p.KnowsK() {
		panic("core: wait_and_go requires known k (Scenario B)")
	}
	lad := selectors.RandomLadder(a.ladder(p))
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

// Cohort implements model.Batched: the cohort's own ladder is re-keyed once
// per run, and each station waits for its boundary unless the wait is
// disabled.
func (a *WaitAndGo) Cohort(p model.Params, prev model.Cohort) model.Cohort {
	if !p.KnowsK() {
		panic("core: wait_and_go requires known k (Scenario B)")
	}
	rule := goAtBoundary
	if a.DisableWait {
		rule = goAtWake
	}
	c := newLadderCohort(prev, 0, rule)
	c.lad.Rekey(a.ladder(p))
	return c
}

// ladderCohort is the model.Cohort of WaitAndGo and SelectAmongFirst: the
// joined stations in join order, each with the slot from which it
// transmits by the ladder's cyclic schedule. Every operative station tests
// the same set in a slot, so the cohort computes the set's hash key once
// per slot, and each operative station costs one hash. The cohort owns its
// ladder and re-keys it per run (selectors.Sequence.Rekey), so a run
// neither builds a ladder nor touches the shared ones.
type ladderCohort struct {
	lad      selectors.Sequence
	start    int64 // slot t reads set (t - start) mod the ladder's length
	rule     ladderRule
	stations []ladderStation
}

// ladderRule is when a ladder station becomes operative.
type ladderRule uint8

const (
	goAtWake     ladderRule = iota // at its wake slot (wait_and_go without the wait)
	goAtBoundary                   // at the first family boundary from its wake (wait_and_go)
	goAtStart                      // at start if woken there, never otherwise (select_among_the_first)
)

// ladderStation is a station and its operative slot (model.Never: none).
type ladderStation struct {
	id int
	op int64
}

// newLadderCohort returns prev, or a new cohort if prev is not a
// ladderCohort, emptied for a run; the caller re-keys its ladder.
func newLadderCohort(prev model.Cohort, start int64, rule ladderRule) *ladderCohort {
	c, _ := prev.(*ladderCohort)
	if c == nil {
		c = new(ladderCohort)
	}
	c.start, c.rule = start, rule
	c.stations = c.stations[:0]
	return c
}

// station is station id, woken at wake, with its operative slot.
func (c *ladderCohort) station(id int, wake int64) ladderStation {
	op := wake
	switch c.rule {
	case goAtBoundary:
		op = c.lad.NextBoundary(wake)
	case goAtStart:
		if wake != c.start {
			op = model.Never
		}
	}
	return ladderStation{id, op}
}

// Join implements model.Cohort. Build draws nothing from the stream, and
// neither does the join.
func (c *ladderCohort) Join(id int, wake int64, _ *rng.Source) {
	c.stations = append(c.stations, c.station(id, wake))
}

// JoinAt implements model.Cohort: a station operative at its wake slot
// tests that slot's set.
func (c *ladderCohort) JoinAt(i, id int, wake int64, _ *rng.Source) bool {
	st := c.station(id, wake)
	c.stations = slices.Insert(c.stations, i, st)
	if st.op != wake {
		return false
	}
	key, e := c.lad.SetKey((wake - c.start) % c.lad.Length())
	return rng.Below(rng.Hash3Tail(key, uint64(id)), e)
}

// Transmitters implements model.Cohort.
func (c *ladderCohort) Transmitters(t int64, dst []int) []int {
	keyed := false
	var key uint64
	var e int
	for _, st := range c.stations {
		if t < st.op {
			continue
		}
		if !keyed {
			key, e = c.lad.SetKey((t - c.start) % c.lad.Length())
			keyed = true
		}
		if rng.Below(rng.Hash3Tail(key, uint64(st.id)), e) {
			dst = append(dst, st.id)
		}
	}
	return dst
}

// Next implements model.Cohort: the ladder names no attempt ahead of time,
// so the cohort is asked about every slot.
func (c *ladderCohort) Next(from int64) int64 { return from }

// FirstWaker implements model.WakeProber: off a family boundary every
// station woken there is silent until the next one, so nobody qualifies;
// on it (or with the wait disabled) the answer is the first untaken member
// of the ladder's set at the wake slot.
func (a *WaitAndGo) FirstWaker(p model.Params, wake int64, _ uint64, taken []bool) int {
	if !p.KnowsK() {
		panic("core: wait_and_go requires known k (Scenario B)")
	}
	lad := selectors.RandomLadder(a.ladder(p))
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
	lad := selectors.RandomLadder(a.ladder(model.Params{N: n, K: k, S: -1}))
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
