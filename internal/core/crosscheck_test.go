package core

import (
	"testing"

	"nsmac/internal/matrix"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// TestWakeupCEngineMatchesMatrixGroundTruth cross-validates the two
// independent implementations of Protocol wakeup(u,σ): the simulation
// engine (per-station TransmitFuncs with the cached row cursor) against
// the matrix-level analysis (Definition 5.3's isolation predicate computed
// from S_{i,j} sets). Any divergence means one of them misreads §5.1.
func TestWakeupCEngineMatchesMatrixGroundTruth(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		for _, k := range []int{1, 2, 4, 7} {
			if k > n {
				continue
			}
			for trial := uint64(0); trial < 4; trial++ {
				seed := rng.Derive(uint64(n)<<16|uint64(k), trial)
				a := NewWakeupC()
				p := model.Params{N: n, S: -1, Seed: seed}
				spec := a.Spec(p)

				src := rng.New(seed)
				ids := src.Sample(nil, n, k)
				wakes := make([]int64, k)
				pop := make(matrix.Population, k)
				for i, id := range ids {
					wakes[i] = src.Int63n(int64(3*k) + 1)
					pop[i] = matrix.Station{ID: id, Wake: wakes[i]}
				}
				w := model.WakePattern{IDs: ids, Wakes: wakes}

				res, _, err := sim.Run(a, p, w, sim.Options{Horizon: a.Horizon(n, k), Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				slot, id, ok := spec.FirstIsolation(pop, a.Horizon(n, k))
				if res.Succeeded != ok {
					t.Fatalf("n=%d k=%d trial=%d: engine success=%v, matrix analysis=%v",
						n, k, trial, res.Succeeded, ok)
				}
				if !ok {
					continue
				}
				if res.SuccessSlot != slot || res.Winner != id {
					t.Fatalf("n=%d k=%d trial=%d: engine (slot=%d, id=%d) vs matrix (slot=%d, id=%d)",
						n, k, trial, res.SuccessSlot, res.Winner, slot, id)
				}
			}
		}
	}
}

// TestWakeupCSchedulePurity verifies the cached row cursor in the
// TransmitFunc preserves pure-function semantics under arbitrary (random,
// repeated, backward) access orders.
func TestWakeupCSchedulePurity(t *testing.T) {
	a := NewWakeupC()
	p := model.Params{N: 512, S: -1, Seed: 77}
	wake := int64(9)
	spec := a.Spec(p)
	op := spec.Mu(wake)

	reference := a.Build(p, 42, wake, nil) // queried monotonically
	horizon := op + 3*spec.RowResidence(1) + 50
	truth := make(map[int64]bool)
	for tt := wake; tt < horizon; tt++ {
		truth[tt] = reference(tt)
	}

	chaotic := a.Build(p, 42, wake, nil)
	src := rng.New(5)
	for probe := 0; probe < 5000; probe++ {
		tt := wake + src.Int63n(horizon-wake)
		if chaotic(tt) != truth[tt] {
			t.Fatalf("schedule impure at t=%d under random access", tt)
		}
	}
}

// TestAlgorithmsDeterministicAcrossRuns re-runs every algorithm twice with
// identical inputs and demands bit-identical results — the reproducibility
// contract everything in EXPERIMENTS.md rests on.
func TestAlgorithmsDeterministicAcrossRuns(t *testing.T) {
	n, k := 128, 6
	seed := uint64(31337)
	ids := rng.New(seed).Sample(nil, n, k)
	wakes := make([]int64, k)
	for i := range wakes {
		wakes[i] = int64(i * 5)
	}
	w := model.WakePattern{IDs: ids, Wakes: wakes}

	cases := []struct {
		algo    model.Algorithm
		p       model.Params
		horizon int64
	}{
		{NewRoundRobin(), model.Params{N: n, S: -1, Seed: seed}, NewRoundRobin().Horizon(n, k)},
		{NewWakeupWithS(), model.Params{N: n, S: 0, Seed: seed}, WakeupWithSHorizon(n, k)},
		{NewWakeupWithK(), model.Params{N: n, K: k, S: -1, Seed: seed}, WakeupWithKHorizon(n, k)},
		{NewWakeupC(), model.Params{N: n, S: -1, Seed: seed}, NewWakeupC().Horizon(n, k)},
		{NewRPD(), model.Params{N: n, S: -1, Seed: seed}, NewRPD().Horizon(n, k)},
		{NewBEB(), model.Params{N: n, S: -1, Seed: seed}, NewBEB().Horizon(n, k)},
		{NewLocalSSF(), model.Params{N: n, K: k, S: -1, Seed: seed}, NewLocalSSF().Horizon(n, k)},
	}
	for _, c := range cases {
		run := func() model.Result {
			res, _, err := sim.Run(c.algo, c.p, w, sim.Options{Horizon: c.horizon, Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", c.algo.Name(), err)
			}
			return res
		}
		a, b := run(), run()
		if a != b {
			t.Errorf("%s not deterministic: %+v vs %+v", c.algo.Name(), a, b)
		}
	}
}

// TestInterleavedMatchesManualComposition verifies the Interleaved
// combinator against a hand-rolled composition: wakeup_with_k's schedule
// on even slots must equal round-robin on the component clock, and on odd
// slots wait_and_go on the component clock.
func TestInterleavedMatchesManualComposition(t *testing.T) {
	n, k := 64, 4
	p := model.Params{N: n, K: k, S: -1, Seed: 9}
	il := NewWakeupWithK()
	id := 17
	wake := int64(5)

	combined := il.Build(p, id, wake, nil)

	// Manual even component: round robin with component wake ceil.
	evenWake := (wake + 1) / 2 // first even slot >= 5 is 6 -> index 3
	_ = evenWake
	for tt := wake; tt < wake+400; tt++ {
		got := combined(tt)
		if tt%2 == 0 {
			// Round-robin at component index tt/2.
			want := (tt/2)%int64(n) == int64(id-1) && tt/2 >= (wake+1)/2
			if got != want {
				t.Fatalf("even slot %d: combined=%v manual=%v", tt, got, want)
			}
		} else if got {
			// Odd slots: we only check that any transmission is at or
			// after the station's first odd slot (the wait_and_go
			// internals are covered by its own tests).
			if tt < wake {
				t.Fatalf("odd slot %d before wake", tt)
			}
		}
	}
}

// TestRoundRobinNeverCollidesProperty drives random patterns through
// round-robin and asserts the no-collision invariant the §2 optimality
// argument rests on.
func TestRoundRobinNeverCollidesProperty(t *testing.T) {
	src := rng.New(12)
	for trial := 0; trial < 60; trial++ {
		n := 4 + src.Intn(200)
		k := 1 + src.Intn(n)
		ids := src.Sample(nil, n, k)
		wakes := make([]int64, k)
		for i := range wakes {
			wakes[i] = src.Int63n(50)
		}
		w := model.WakePattern{IDs: ids, Wakes: wakes}
		p := model.Params{N: n, S: -1}
		res, _, err := sim.Run(NewRoundRobin(), p, w, sim.Options{Horizon: int64(n) + 60})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Succeeded {
			t.Fatalf("trial %d: round robin failed (n=%d k=%d)", trial, n, k)
		}
		if res.Collisions != 0 {
			t.Fatalf("trial %d: round robin collided", trial)
		}
	}
}
