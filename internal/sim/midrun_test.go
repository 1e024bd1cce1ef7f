package sim_test

import (
	"testing"

	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// checkInvariants asserts the counter identities that must hold at every
// partial horizon of a non-perturbing run:
//   - Slot() == s + Result().Slots (the engine is exactly where its counter
//     says it is);
//   - every stepped slot is exactly one of collision / silence / success;
//   - Rounds and SuccessSlot stay at their sentinels until success, then
//     pin to the success slot.
func checkInvariants(t *testing.T, name string, x *sim.Engine, s int64) {
	t.Helper()
	r := x.Result()
	if got, want := x.Slot(), s+r.Slots; got != want {
		t.Fatalf("%s: Slot() = %d but s+Slots = %d", name, got, want)
	}
	succ := int64(0)
	if r.Succeeded {
		succ = 1
	}
	if r.Collisions+r.Silences+succ != r.Slots {
		t.Fatalf("%s: collisions %d + silences %d + success %d != slots %d",
			name, r.Collisions, r.Silences, succ, r.Slots)
	}
	if r.Succeeded {
		if r.SuccessSlot != s+r.Rounds || r.Winner == 0 {
			t.Fatalf("%s: inconsistent success fields %#v (s=%d)", name, r, s)
		}
		if !x.Done() {
			t.Fatalf("%s: succeeded but not done", name)
		}
	} else if r.SuccessSlot != -1 || r.Rounds != -1 || r.Winner != 0 {
		t.Fatalf("%s: success sentinels disturbed before success: %#v", name, r)
	}
	if r.Transmissions+r.Listens < r.Slots {
		// At least one station is awake at every stepped slot (time starts
		// at the first wake), so every slot costs at least one energy unit.
		t.Fatalf("%s: energy %d below stepped slots %d", name, r.Energy(), r.Slots)
	}
}

// runInvariants steps x from the first wake s to the end of its trial at
// random RunTo bounds, asserting the counter invariants at every stop, and
// that RunTo is idempotent at the same bound, and calling at (if non-nil)
// with each bound.
func runInvariants(t *testing.T, name string, x *sim.Engine, s, horizon int64, src *rng.Source, at func(u int64)) {
	t.Helper()
	u := s
	for !x.Done() {
		u += 1 + int64(src.Intn(120))
		x.RunTo(u)
		checkInvariants(t, name, x, s)
		before := x.Result()
		x.RunTo(u)
		if x.Result() != before {
			t.Fatalf("%s: second RunTo(%d) changed the result", name, u)
		}
		if at != nil {
			at(u)
		}
	}
	// Done at the horizon without success still reports Slots == horizon
	// (failures are priced at the full horizon upstream).
	if r := x.Result(); !r.Succeeded && r.Slots != horizon {
		t.Fatalf("%s: failed run stepped %d slots, horizon %d", name, r.Slots, horizon)
	}
}

// midRunPattern draws k distinct stations in [1, n] with wakes in
// [0, spread).
func midRunPattern(n, k int, spread int64, seed uint64) model.WakePattern {
	ids := rng.New(rng.Derive(seed, 2)).Sample(n, k)
	wakes := make([]int64, k)
	wsrc := rng.New(rng.Derive(seed, 3))
	for i := range wakes {
		wakes[i] = wsrc.Int63n(spread)
	}
	return model.WakePattern{IDs: ids, Wakes: wakes}
}

// TestMidRunInvariants drives randomized workloads with arbitrary RunTo
// break points, asserting the counter invariants at every stop. The first
// leg alternates between the local-clock localssf under staggered wakes and
// roundrobin, whose trials on up to 300 ids often outlast the horizon; both
// step sparsely. The second runs adaptive tree_cd, alternating between the
// none and noisy:0.1 channels, with wakes so close that the first ones
// often collide until the horizon, and requires Run on a second engine,
// which finishes the trial cut at each stop in closed form, to return the
// stepped engine's Result there.
func TestMidRunInvariants(t *testing.T) {
	src := rng.New(0x111)
	eng, cf := sim.NewEngine(), sim.NewEngine()
	for round := 0; round < 25; round++ {
		algo := model.Algorithm(core.NewLocalSSF())
		if round%2 == 1 {
			algo = core.NewRoundRobin()
		}
		n := 2 + src.Intn(300)
		k := 1 + src.Intn(min(n, 16))
		seed := src.Uint64()
		p := model.Params{N: n, S: -1, Seed: seed}
		horizon := int64(30 + src.Intn(400))

		w := midRunPattern(n, k, 25, seed)
		if err := eng.Reset(algo, p, w, sim.Options{Horizon: horizon, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		runInvariants(t, "engine/"+algo.Name(), eng, w.FirstWake(), horizon, src, nil)

		ch := model.None()
		if round%2 == 1 {
			ch = model.Noisy(0.1)
		}
		w = midRunPattern(n, k, 3, seed)
		opt := sim.Options{Horizon: horizon, Seed: seed, Channel: ch, Adaptive: true}
		tree := core.NewTreeCD()
		if err := eng.Reset(tree, p, w, opt); err != nil {
			t.Fatal(err)
		}
		runInvariants(t, "engine/tree_cd", eng, w.FirstWake(), horizon, src, func(u int64) {
			cut := opt
			cut.Horizon = min(u-w.FirstWake(), horizon)
			if err := cf.Reset(tree, p, w, cut); err != nil {
				t.Fatal(err)
			}
			if got, want := cf.Run(), eng.Result(); got != want || cf.Channel().Slots() != 0 {
				t.Fatalf("round %d cut at %d: closed form %#v (channel stepped %d slots) != stepped %#v",
					round, u, got, cf.Channel().Slots(), want)
			}
		})
	}
}

// TestRunToHorizonEdge pins the engine's done-flag edge: RunTo exactly at
// the horizon boundary leaves done false (no step past the end was
// attempted); only a RunTo beyond it flips done. Run of the adaptive trial
// on a fresh engine, in closed form, returns the stepped engine's Result.
func TestRunToHorizonEdge(t *testing.T) {
	p := model.Params{N: 6, S: -1}
	// Round-robin never collides, so keep k=1 silent long enough by picking
	// a horizon that ends before the station's residue slot: station 5
	// transmits at slot 4.
	rr := sim.Options{Horizon: 3, Seed: 1}
	rrWake := model.WakePattern{IDs: []int{5}, Wakes: []int64{0}}
	// Two tree_cd stations that wake together collide in every slot.
	tree := sim.Options{Horizon: 3, Seed: 1, Adaptive: true}
	treeWake := model.WakePattern{IDs: []int{2, 5}, Wakes: []int64{0, 0}}
	for _, c := range []struct {
		algo model.Algorithm
		w    model.WakePattern
		opt  sim.Options
	}{
		{core.NewRoundRobin(), rrWake, rr},
		{core.NewTreeCD(), treeWake, tree},
	} {
		name := "engine/" + c.algo.Name()
		x := sim.NewEngine()
		if err := x.Reset(c.algo, p, c.w, c.opt); err != nil {
			t.Fatal(err)
		}
		if x.RunTo(3) {
			t.Errorf("%s: RunTo(horizon) reported done without attempting a step past it", name)
		}
		if r := x.Result(); r.Slots != 3 || r.Succeeded {
			t.Errorf("%s: at the boundary: %#v", name, r)
		}
		if !x.RunTo(4) {
			t.Errorf("%s: RunTo past the horizon must flip done", name)
		}
		if r := x.Result(); r.Slots != 3 || r.Succeeded {
			t.Errorf("%s: flipping done must not step extra slots: %#v", name, r)
		}
		if !c.opt.Adaptive {
			continue
		}
		cf := sim.NewEngine()
		if err := cf.Reset(c.algo, p, c.w, c.opt); err != nil {
			t.Fatal(err)
		}
		if got := cf.Run(); got != x.Result() || cf.Channel().Slots() != 0 {
			t.Errorf("closed form/%s: %#v (channel stepped %d slots); stepped %#v",
				c.algo.Name(), got, cf.Channel().Slots(), x.Result())
		}
	}
}
