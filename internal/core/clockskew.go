package core

import (
	"fmt"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// ClockSkewed degrades the globally synchronous model toward the locally
// synchronous one the paper's conclusion asks about ("whether global clock
// helps in the wake-up task"): each station perceives the global clock with
// a private offset in [0, MaxSkew], so schedules that rely on global slot
// numbers (family boundaries, matrix columns, round-robin residues) become
// mutually misaligned while purely local algorithms are unaffected.
//
// Experiment T12 uses it to measure the conjecture empirically: the paper's
// global-clock algorithms should degrade with skew, while the locally
// synchronized baseline should not care.
type ClockSkewed struct {
	// Inner is the algorithm whose stations get skewed clocks.
	Inner model.Algorithm
	// MaxSkew bounds the per-station offset (inclusive).
	MaxSkew int64
}

// NewClockSkewed wraps inner with clock skew up to maxSkew.
func NewClockSkewed(inner model.Algorithm, maxSkew int64) *ClockSkewed {
	if inner == nil {
		panic("core: ClockSkewed requires an inner algorithm")
	}
	if maxSkew < 0 {
		panic("core: negative skew")
	}
	return &ClockSkewed{Inner: inner, MaxSkew: maxSkew}
}

// Name implements model.Algorithm.
func (a *ClockSkewed) Name() string {
	return fmt.Sprintf("skewed(%s,±%d)", a.Inner.Name(), a.MaxSkew)
}

// Build implements model.Algorithm: station id's private clock reads
// t + skew_id; it hands the inner algorithm its perceived wake time and
// queries the inner schedule at perceived slots. Skew is derived from the
// params seed so runs stay reproducible.
func (a *ClockSkewed) Build(p model.Params, id int, wake int64, src *rng.Source) model.TransmitFunc {
	var skew int64
	if a.MaxSkew > 0 {
		skew = int64(rng.Hash3(rng.Derive(p.Seed, 0x5c3), uint64(id), uint64(a.MaxSkew), 1) % uint64(a.MaxSkew+1))
	}
	// The station believes it woke at wake+skew on its own clock. Knowledge
	// of S (Scenario A) is skewed the same way — the station compares its
	// perceived clock against the announced s as it perceives it.
	pp := p
	if p.KnowsS() {
		pp.S = p.S + skew
	}
	inner := a.Inner.Build(pp, id, wake+skew, src)
	return func(t int64) bool {
		return inner(t + skew)
	}
}
