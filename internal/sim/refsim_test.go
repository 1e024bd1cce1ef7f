package sim

import (
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// refRun is a deliberately naive, independent re-implementation of the
// wake-up semantics: no activation bookkeeping, no early exits, no reuse —
// every slot it rebuilds nothing and asks every station in the pattern
// whether it is awake and transmitting. The engine must agree with it
// exactly on success slot, winner, and waste counters.
func refRun(algo model.Algorithm, p model.Params, w model.WakePattern, horizon int64, seed uint64) model.Result {
	funcs := make(map[int]model.TransmitFunc, w.K())
	for i, id := range w.IDs {
		funcs[id] = algo.Build(p, id, w.Wakes[i], rng.New(rng.Derive(seed, uint64(id))))
	}
	s := w.FirstWake()
	out := model.Result{SuccessSlot: -1, Rounds: -1}
	for t := s; t < s+horizon; t++ {
		var transmitters []int
		awake := 0
		for i, id := range w.IDs {
			if w.Wakes[i] > t {
				continue
			}
			awake++
			if funcs[id](t) {
				transmitters = append(transmitters, id)
			}
		}
		out.Transmissions += int64(len(transmitters))
		out.Listens += int64(awake - len(transmitters))
		switch len(transmitters) {
		case 0:
			out.Silences++
		case 1:
			out.Succeeded = true
			out.Winner = transmitters[0]
			out.SuccessSlot = t
			out.Rounds = t - s
			out.Slots = t - s + 1
			return out
		default:
			out.Collisions++
		}
	}
	out.Slots = horizon
	return out
}

// hashAlgo is a pseudo-random but deterministic schedule: station id
// transmits at t iff hash(seed, id, t) lands below density. It exercises
// arbitrary overlap patterns without any algorithmic structure.
type hashAlgo struct{ density int }

func (h hashAlgo) Name() string { return "hashAlgo" }
func (h hashAlgo) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	return func(t int64) bool {
		if t < wake {
			return false
		}
		return rng.Below(rng.Hash3(p.Seed, uint64(id), uint64(t), 3), h.density)
	}
}

func TestEngineMatchesReferenceSimulator(t *testing.T) {
	src := rng.New(404)
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(60)
		k := 1 + src.Intn(n)
		ids := src.Sample(nil, n, k)
		wakes := make([]int64, k)
		for i := range wakes {
			wakes[i] = src.Int63n(20)
		}
		w := model.WakePattern{IDs: ids, Wakes: wakes}
		p := model.Params{N: n, S: -1, Seed: src.Uint64()}
		algo := hashAlgo{density: 1 + src.Intn(4)}
		horizon := int64(200)
		seed := src.Uint64()

		engine, _, err := Run(algo, p, w, Options{Horizon: horizon, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ref := refRun(algo, p, w, horizon, seed)

		if engine != ref {
			t.Fatalf("trial %d (n=%d k=%d): engine %#v != reference %#v",
				trial, n, k, engine, ref)
		}
	}
}

func TestEngineMatchesReferenceOnAdaptiveFallback(t *testing.T) {
	// Non-adaptive algorithm under Adaptive option must still match the
	// reference (the fallback path).
	src := rng.New(55)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.Intn(30)
		k := 1 + src.Intn(n)
		w := model.Simultaneous(src.Sample(nil, n, k), src.Int63n(5))
		p := model.Params{N: n, S: -1, Seed: src.Uint64()}
		algo := hashAlgo{density: 2}
		seed := src.Uint64()

		engine, _, err := Run(algo, p, w, Options{Horizon: 150, Seed: seed, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		ref := refRun(algo, p, w, 150, seed)
		if engine != ref {
			t.Fatalf("trial %d: adaptive-fallback engine %#v != reference %#v", trial, engine, ref)
		}
	}
}
