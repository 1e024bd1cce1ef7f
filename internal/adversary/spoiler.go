package adversary

import (
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// SpoilerResult reports a white-box spoiler attack.
type SpoilerResult struct {
	// Pattern is the constructed wake pattern (first station plus every
	// spoiler the adversary injected).
	Pattern model.WakePattern
	// Rounds is the first-success round (t − s) under the attack, or
	// horizon if the attack suppressed success entirely.
	Rounds int64
	// Spoiled counts how many would-be successes the adversary disrupted.
	Spoiled int
	// Succeeded reports whether the algorithm still woke up within the
	// horizon despite the attack.
	Succeeded bool
}

// Spoiler mounts the strongest wake-time attack the model allows against an
// oblivious algorithm: station firstID wakes at slot 0, and whenever a slot
// carries a solo transmission, the adversary wakes a fresh station whose
// schedule also transmits in that slot — converting the success into a
// collision. It stops injecting when the budget of k−1 spoilers is spent,
// or when no unused station transmits at the slot.
//
// The attack runs inside engine e (reset here) under opt — horizon,
// channel, seed, transcript — through the engine's sim.SuccessHook, so a
// slot the channel erases or jams never reaches the hook and costs no
// budget. At each success while budget remains it asks the algorithm's
// model.WakeProber once for the first unused station that transmits at
// its wake slot; an algorithm without one has each unused candidate's
// schedule built in ID order instead. Either way candidates are judged on
// the per-station streams the engine derives from opt.Seed, so the lookup
// is exact even for randomized algorithms (the adversary reads the coin
// flips — the strongest version of the attack). It returns the attack's
// verdict and the Result of the run, which a replay of the pattern
// reproduces, or the engine's rejection of the inputs (a firstID outside
// [1, n] among them). The run ignores opt.Adaptive: the adversary probes
// oblivious schedules.
//
// This is exactly the adversary the §4 wait barrier and the §5 µ(σ) window
// alignment neutralize: a station woken mid-family (mid-window) stays
// silent until the next boundary, so it CANNOT be used to spoil the current
// slot, and the selectivity/isolation guarantee survives. Ablated variants
// that transmit immediately after waking hand the adversary that weapon
// back; T8 measures the resulting damage. Against interleaved algorithms
// the first station's round-robin slot bounds the attack, so picking a
// firstID whose residue comes up late probes the worst case.
func Spoiler(e *sim.Engine, algo model.Algorithm, p model.Params, k, firstID int, opt sim.Options) (SpoilerResult, model.Result, error) {
	n := p.N
	if k < 1 || k > n {
		panic("adversary: Spoiler requires 1 <= k <= n")
	}
	opt.Adaptive = false
	sp := SpoilerResult{Pattern: model.WakePattern{IDs: []int{firstID}, Wakes: []int64{0}}}
	if err := e.Reset(algo, p, sp.Pattern, opt); err != nil {
		return sp, model.Result{}, err
	}

	prober, ok := algo.(model.WakeProber)
	if !ok {
		prober = &buildProber{Algorithm: algo}
	}
	used := make([]bool, n+1)
	used[firstID] = true
	budget := k - 1
	res := e.RunHooked(budget, func(t int64, _ int) (int, bool) {
		if sp.Spoiled == budget {
			return 0, false
		}
		y := prober.FirstWaker(p, t, opt.Seed, used)
		if y == 0 {
			return 0, false
		}
		used[y] = true
		sp.Pattern.IDs = append(sp.Pattern.IDs, y)
		sp.Pattern.Wakes = append(sp.Pattern.Wakes, t)
		sp.Spoiled++
		return y, false
	})
	sp.Succeeded = res.Succeeded
	sp.Rounds = opt.Horizon
	if res.Succeeded {
		sp.Rounds = res.Rounds
	}
	return sp, res, nil
}

// buildProber answers model.WakeProber for an algorithm that does not, by
// building each untaken candidate's schedule on one reused stream: most
// candidates are thrown away, and the engine builds the spoiler that is
// kept on a stream of its own, since its schedule may hold on to the
// stream it was built with.
type buildProber struct {
	model.Algorithm
	src rng.Source
}

func (b *buildProber) FirstWaker(p model.Params, wake int64, seed uint64, taken []bool) int {
	for id := 1; id <= p.N; id++ {
		if taken[id] {
			continue
		}
		b.src.Reseed(rng.Derive(seed, uint64(id)))
		if b.Build(p, id, wake, &b.src)(wake) {
			return id
		}
	}
	return 0
}
