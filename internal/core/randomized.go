package core

import (
	"slices"

	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// RPD is the Repeated Probability Decrease randomized baseline of §6
// (Jurdziński & Stachowiak): a station, counting rounds σ = 0, 1, 2, …
// from its own wake-up, transmits in round σ with probability
// 2^{-(1 + σ mod ℓ)}, where ℓ = 2⌈log n⌉ — or ℓ = 2⌈log k⌉ when the bound
// k is known (Scenario B), which makes the expected wake-up time O(log k),
// matching the Kushilevitz–Mansour Ω(log k) lower bound.
type RPD struct {
	// UseK selects ℓ = 2⌈log k⌉ when the params carry a known k.
	UseK bool
}

// NewRPD returns the n-calibrated variant (expected O(log n)).
func NewRPD() *RPD { return &RPD{} }

// NewRPDWithK returns the k-calibrated variant (expected O(log k); requires
// Scenario B params).
func NewRPDWithK() *RPD { return &RPD{UseK: true} }

// Name implements model.Algorithm.
func (a *RPD) Name() string {
	if a.UseK {
		return "rpd(ell=2logk)"
	}
	return "rpd(ell=2logn)"
}

// Ell returns the probability-cycle length ℓ for the given params.
func (a *RPD) Ell(p model.Params) int64 {
	base := p.N
	if a.UseK {
		if !p.KnowsK() {
			panic("core: rpd(ell=2logk) requires known k (Scenario B)")
		}
		base = p.K
	}
	return 2 * int64(max(1, mathx.Log2Ceil(max(2, base))))
}

// Build implements model.Algorithm. Each station derives a personal seed
// from its random stream once, then decides each round by a pure hash, so
// the schedule is reproducible however the engine queries it.
func (a *RPD) Build(p model.Params, id int, wake int64, src *rng.Source) model.TransmitFunc {
	ell := a.Ell(p)
	var personal uint64
	if src != nil {
		personal = src.Uint64()
	} else {
		personal = rng.Derive(p.Seed, uint64(id))
	}
	return func(t int64) bool {
		if t < wake {
			return false
		}
		sigma := t - wake
		e := 1 + int(sigma%ell)
		return rng.Below(rng.Hash3(personal, uint64(sigma), uint64(e), uint64(id)), e)
	}
}

// Cohort implements model.Batched: one flat table of the run's coins. A
// station's record holds what Build's closure computes from: its personal
// seed (drawn as Build draws it), its round σ and exponent e = 1 + σ mod ℓ,
// and its ID. Each slot advances σ and e by one, e wrapping at ℓ, so a coin
// costs its three hashes and no division or call.
func (a *RPD) Cohort(p model.Params, prev model.Cohort) model.Cohort {
	c, ok := prev.(*rpdCohort)
	if !ok {
		c = new(rpdCohort)
	}
	c.ell, c.coins = uint64(a.Ell(p)), c.coins[:0]
	return c
}

// rpdCohort is RPD's model.Cohort: the coins of the joined stations in join
// order.
type rpdCohort struct {
	ell   uint64
	coins []rpdCoin
}

// rpdCoin is one station's coin at its next round: Hash3(personal, sigma, e,
// id) below 2^-e transmits.
type rpdCoin struct {
	personal, sigma, e, id uint64
}

// newRPDCoin is station id's coin at round 0, keyed by the first draw from the
// station's stream, as Build keys it.
func newRPDCoin(id int, src *rng.Source) rpdCoin {
	return rpdCoin{personal: src.Uint64(), e: 1, id: uint64(id)}
}

// Join implements model.Cohort.
func (c *rpdCohort) Join(id int, _ int64, src *rng.Source) {
	c.coins = append(c.coins, newRPDCoin(id, src))
}

// JoinAt implements model.Cohort: the station tosses its wake-slot coin as
// Transmitters would.
func (c *rpdCohort) JoinAt(i, id int, wake int64, src *rng.Source) bool {
	c.coins = slices.Insert(c.coins, i, newRPDCoin(id, src))
	one := rpdCohort{ell: c.ell, coins: c.coins[i : i+1]}
	var tx [1]int
	return len(one.Transmitters(wake, tx[:0])) > 0
}

// Transmitters implements model.Cohort. Each call tosses every coin for
// the next slot, so t is not read.
func (c *rpdCohort) Transmitters(_ int64, dst []int) []int {
	ell := c.ell
	for i := range c.coins {
		k := &c.coins[i]
		if rng.Below(rng.Hash3(k.personal, k.sigma, k.e, k.id), int(k.e)) {
			dst = append(dst, int(k.id))
		}
		k.sigma++
		if k.e++; k.e > ell {
			k.e = 1
		}
	}
	return dst
}

// Next implements model.Cohort: Transmitters tosses the coins of one slot
// per call, so the cohort must be asked about every slot.
func (c *rpdCohort) Next(from int64) int64 { return from }

// FirstWaker implements model.WakeProber: round σ = 0 is the e = 1 coin,
// keyed by the personal seed Build draws first from the station's stream.
func (a *RPD) FirstWaker(p model.Params, wake int64, seed uint64, taken []bool) int {
	a.Ell(p) // Build's check that the params fit the variant
	for id := 1; id <= p.N; id++ {
		if taken[id] {
			continue
		}
		personal := rng.FirstUint64(rng.Derive(seed, uint64(id)))
		if rng.Below(rng.Hash3(personal, 0, 1, uint64(id)), 1) {
			return id
		}
	}
	return 0
}

// Horizon implements Bounded: expectation is O(log n); each ℓ-cycle gives a
// constant success probability, so a few hundred cycles push the failure
// probability below any practical threshold.
func (a *RPD) Horizon(n, k int) int64 {
	base := n
	if a.UseK {
		base = max(2, k)
	}
	ell := 2 * int64(max(1, mathx.Log2Ceil(max(2, base))))
	return 512*ell + 64
}
