package adversary

import (
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// This file promotes the white-box adversaries to first-class pattern-axis
// generators, so sweep grids can pit every algorithm against the Spoiler
// attack and the Theorem 2.1 swap search as ordinary grid cells, next to the
// black-box families.

// SpoilerPattern returns the Spoiler attack as a pattern generator: each
// trial mounts the strongest wake-time attack the model allows against the
// cell's algorithm (wake a colliding fresh station at every would-be success
// slot, budget k−1 spoilers) and plays the resulting wake pattern back. The
// seed picks the initial station, probing different round-robin residues
// across trials.
func SpoilerPattern() Generator {
	return Generator{
		Name: "spoiler",
		Ref:  "spoiler",
		VsAlgo: func(algo model.Algorithm, p model.Params, k int, horizon int64, seed uint64, ch model.ChannelModel) model.WakePattern {
			var src rng.Source
			src.Reseed(seed)
			firstID := 1 + src.Intn(p.N)
			return SpoilerVs(algo, p, k, horizon, firstID, ch).Pattern
		},
	}
}

// SwapPattern returns the Theorem 2.1 swap adversary as a pattern generator:
// each trial runs the full swap search against the cell's algorithm and
// plays back the worst witness set it found (simultaneous wake at slot 0).
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
		VsAlgo: func(algo model.Algorithm, p model.Params, k int, horizon int64, seed uint64, ch model.ChannelModel) model.WakePattern {
			// The search keys its initial set and its replayed simulations
			// off p.Seed, which the sweep derives per trial — the extra seed
			// diversifies nothing further here.
			res := SwapVs(algo, p, k, horizon, greedy, ch)
			return model.Simultaneous(res.Witness, 0)
		},
	}
}
