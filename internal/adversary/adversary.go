// Package adversary supplies the workloads that stress contention
// resolution: wake-pattern generators covering the spectrum from
// simultaneous to adversarially staggered, and the Theorem 2.1 swap
// adversary that searches for a witness set forcing any algorithm to spend
// min{k, n−k+1} rounds.
package adversary

import (
	"fmt"
	"slices"

	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// Generator names a reproducible wake-pattern family; implementations must
// be deterministic in their arguments.
//
// A family is either black-box (Generate set: the pattern depends only on
// (n, k, seed)) or white-box (VsAlgo set: the attack runs against the
// concrete algorithm under test, like the Spoiler and Swap adversaries).
// Exactly one of the two is non-nil.
type Generator struct {
	// Name identifies the pattern family in experiment tables.
	Name string
	// Generate draws a wake pattern with exactly k distinct stations into
	// dst's IDs and Wakes, reusing their backing arrays where they have the
	// room, and returns it. A caller that keeps the result passes the zero
	// WakePattern. Nil for white-box families.
	Generate func(dst model.WakePattern, n, k int, seed uint64) model.WakePattern
	// VsAlgo runs one white-box trial on engine e: the adversary attacks
	// the algorithm under test (with the knowledge p it is granted) under
	// the run options opt — horizon, channel, seed, transcript — and returns
	// the pattern it woke and the Result of the run, or the engine's
	// rejection of the inputs. The attack runs inside the engine; a slot the
	// channel erases or jams never reaches the hook. The pattern wakes at
	// most k stations — white-box adversaries may spend less than their
	// budget. seed is the trial's pattern seed. Nil for black-box families.
	VsAlgo func(e *sim.Engine, algo model.Algorithm, p model.Params, k int, seed uint64, opt sim.Options) (model.WakePattern, model.Result, error)
}

// WhiteBox reports whether the family needs the algorithm under test.
func (g Generator) WhiteBox() bool { return g.VsAlgo != nil }

// Simultaneous wakes k random stations at slot s.
func Simultaneous(s int64) Generator {
	return Generator{
		Name: fmt.Sprintf("simultaneous@%d", s),
		Generate: func(dst model.WakePattern, n, k int, seed uint64) model.WakePattern {
			w := draw(dst, rng.New(seed), n, k)
			for i := range w.Wakes {
				w.Wakes[i] = s
			}
			return w
		},
	}
}

// Staggered wakes k random stations one every gap slots starting at s: the
// canonical non-synchronized pattern.
func Staggered(s, gap int64) Generator {
	return Generator{
		Name: fmt.Sprintf("staggered(gap=%d)", gap),
		Generate: func(dst model.WakePattern, n, k int, seed uint64) model.WakePattern {
			w := draw(dst, rng.New(seed), n, k)
			for i := range w.Wakes {
				w.Wakes[i] = s + int64(i)*gap
			}
			return w
		},
	}
}

// UniformWindow wakes k random stations uniformly inside [s, s+width].
func UniformWindow(s, width int64) Generator {
	if width < 0 {
		panic("adversary: negative window width")
	}
	return Generator{
		Name: fmt.Sprintf("uniform(window=%d)", width),
		Generate: func(dst model.WakePattern, n, k int, seed uint64) model.WakePattern {
			src := rng.New(seed)
			w := draw(dst, src, n, k)
			w.Wakes[0] = s // pin the start so s is deterministic
			for i := 1; i < k; i++ {
				w.Wakes[i] = s + src.Int63n(width+1)
			}
			return w
		},
	}
}

// Bursts wakes k stations in `bursts` equal groups, groups separated by gap
// slots: models correlated arrival waves (e.g. power restoration).
func Bursts(s int64, bursts int, gap int64) Generator {
	if bursts < 1 {
		panic("adversary: bursts must be >= 1")
	}
	return Generator{
		Name: fmt.Sprintf("bursts(%d,gap=%d)", bursts, gap),
		Generate: func(dst model.WakePattern, n, k int, seed uint64) model.WakePattern {
			w := draw(dst, rng.New(seed), n, k)
			per := max(1, mathx.CeilDiv(k, bursts))
			for i := range w.Wakes {
				w.Wakes[i] = s + int64(i/per)*gap
			}
			return w
		},
	}
}

// draw returns dst with k IDs that src samples from [1, n] and k wake slots
// for the caller to set, both in dst's backing arrays where they have the
// room.
func draw(dst model.WakePattern, src *rng.Source, n, k int) model.WakePattern {
	return model.WakePattern{IDs: src.Sample(dst.IDs, n, k), Wakes: slices.Grow(dst.Wakes[:0], k)[:k]}
}

// Suite returns the standard battery used by the experiments: the paper's
// worst cases are spread across synchrony regimes.
func Suite() []Generator {
	return []Generator{
		Simultaneous(0),
		Staggered(0, 1),
		Staggered(0, 13),
		UniformWindow(0, 64),
		Bursts(0, 4, 17),
	}
}

// SwapResult reports a Theorem 2.1 adversary search.
type SwapResult struct {
	// ForcedRounds is the largest first-success round the adversary forced
	// (the empirical lower bound on the algorithm's worst case).
	ForcedRounds int64
	// DistinctRounds is how many distinct first-success rounds appeared
	// across the explored witness sets — the quantity the theorem's
	// counting argument actually bounds.
	DistinctRounds int
	// Witness is the station set achieving ForcedRounds (simultaneous wake
	// at slot 0).
	Witness []int
	// TheoremBound is min{k, n−k+1}.
	TheoremBound int64
	// Iterations is how many swap steps were executed.
	Iterations int
}

// Swap runs the Theorem 2.1 adversary against a deterministic algorithm:
// starting from a k-subset X ⊆ [n] waking simultaneously at slot 0, it
// repeatedly simulates, observes which station x the algorithm isolates
// first and at which round r, then replaces x by a fresh station y never
// used before. Each swap invalidates round r for the new set, so the
// algorithm is dragged through min{k, n−k} distinct success rounds — the
// proof's counting argument made executable.
//
// When greedy is true, each step tries every available y and keeps the one
// maximizing the next first-success round (a stronger but slower probe).
func Swap(algo model.Algorithm, p model.Params, k int, horizon int64, greedy bool) SwapResult {
	return SwapVs(sim.NewEngine(), algo, p, k, horizon, greedy, nil)
}

// SwapVs is Swap on engine e against an explicit channel model (nil selects
// the paper default): every probe simulation runs on e under ch, so the
// witness search maximizes the first-success round of the channel the
// pattern will actually be replayed on — under jamming or noise the worst
// witness set can differ.
func SwapVs(e *sim.Engine, algo model.Algorithm, p model.Params, k int, horizon int64, greedy bool, ch model.ChannelModel) SwapResult {
	n := p.N
	if k < 1 || k > n {
		panic("adversary: Swap requires 1 <= k <= n")
	}
	src := rng.New(rng.Derive(p.Seed, 0xad))

	inX := make([]bool, n+1)
	used := make([]bool, n+1) // stations ever swapped in or out
	x0 := src.Sample(nil, n, k)
	for _, id := range x0 {
		inX[id] = true
		used[id] = true
	}

	current := append([]int(nil), x0...)
	// ForcedRounds starts below any feasible round so the first simulation
	// always records a witness — without this, an algorithm that resolves
	// every explored set in round 0 would return an empty witness.
	res := SwapResult{ForcedRounds: -1, TheoremBound: mathx.BoundLowerMinKN(n, k)}
	roundsSeen := map[int64]bool{}

	// One engine serves every probe: a Reset engine reproduces a fresh one.
	simulate := func(set []int) (int64, int, bool) {
		w := model.Simultaneous(set, 0)
		if err := e.Reset(algo, p, w, sim.Options{Horizon: horizon, Seed: p.Seed, Channel: ch}); err != nil {
			return horizon, 0, false
		}
		r := e.Run()
		if !r.Succeeded {
			return horizon, 0, false
		}
		return r.Rounds, r.Winner, true
	}

	nextFresh := func() int {
		for id := 1; id <= n; id++ {
			if !used[id] && !inX[id] {
				return id
			}
		}
		return 0
	}

	replace := func(set []int, out, in int) []int {
		cp := make([]int, 0, len(set))
		for _, id := range set {
			if id != out {
				cp = append(cp, id)
			}
		}
		return append(cp, in)
	}

	for {
		r, winner, ok := simulate(current)
		if !ok {
			// Algorithm failed outright: the witness already forces the
			// horizon; report and stop.
			res.ForcedRounds = horizon
			res.Witness = append([]int(nil), current...)
			return res
		}
		if !roundsSeen[r] {
			roundsSeen[r] = true
			res.DistinctRounds++
		}
		if r > res.ForcedRounds {
			res.ForcedRounds = r
			res.Witness = append([]int(nil), current...)
		}
		res.Iterations++

		var y int
		if greedy {
			// Try every unused candidate and keep the worst for the
			// algorithm.
			bestR, bestY := int64(-1), 0
			for cand := 1; cand <= n; cand++ {
				if used[cand] || inX[cand] {
					continue
				}
				candSet := replace(current, winner, cand)
				cr, _, cok := simulate(candSet)
				if !cok {
					cr = horizon
				}
				if cr > bestR {
					bestR, bestY = cr, cand
				}
			}
			y = bestY
		} else {
			y = nextFresh()
		}
		if y == 0 {
			return res // complement exhausted: the proof's iteration bound
		}
		inX[winner] = false
		used[y] = true
		inX[y] = true
		current = replace(current, winner, y)
	}
}
