package adversary

import (
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// This file promotes the white-box adversaries to first-class pattern-axis
// generators, so sweep grids can pit every algorithm against the Spoiler
// attack and the Theorem 2.1 swap search as ordinary grid cells, next to the
// black-box families.

// SpoilerPattern returns the Spoiler attack as a pattern generator: each
// trial runs the strongest wake-time attack the model allows inside the
// engine, against the cell's algorithm and channel (wake a colliding fresh
// station at every success slot, budget k−1 spoilers). The seed picks the
// initial station, probing different round-robin residues across trials.
func SpoilerPattern() Generator {
	return Generator{
		Name: "spoiler",
		Ref:  "spoiler",
		VsAlgo: func(e *sim.Engine, algo model.Algorithm, p model.Params, k int, seed uint64, opt sim.Options) (model.WakePattern, model.Result, error) {
			sp, res, err := Spoiler(e, algo, p, k, 1+rng.New(seed).Intn(p.N), opt)
			return sp.Pattern, res, err
		},
	}
}

// SwapPattern returns the Theorem 2.1 swap adversary as a pattern generator:
// each trial runs the full swap search against the cell's algorithm and
// then runs the worst witness set it found (simultaneous wake at slot 0).
// The greedy variant probes every candidate replacement per swap — a much
// stronger and much slower search; reserve it for small n.
func SwapPattern(greedy bool) Generator {
	name, wire := "swap", "swap"
	if greedy {
		name, wire = "swap(greedy)", "swap:1"
	}
	return Generator{
		Name: name,
		Ref:  wire,
		VsAlgo: func(e *sim.Engine, algo model.Algorithm, p model.Params, k int, seed uint64, opt sim.Options) (model.WakePattern, model.Result, error) {
			// The search keys its initial set and its probe simulations
			// off p.Seed, which the sweep derives per trial — the extra seed
			// diversifies nothing further here.
			w := model.Simultaneous(SwapVs(e, algo, p, k, opt.Horizon, greedy, opt.Channel).Witness, 0)
			if err := e.Reset(algo, p, w, opt); err != nil {
				return w, model.Result{}, err
			}
			return w, e.Run(), nil
		},
	}
}
