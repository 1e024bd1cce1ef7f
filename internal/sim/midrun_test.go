package sim_test

import (
	"testing"

	"nsmac/internal/core"
	"nsmac/internal/kernel"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// stepper abstracts the two executors so the mid-run invariants run
// verbatim against both.
type stepper interface {
	RunTo(until int64) bool
	Result() model.Result
	Slot() int64
	Done() bool
}

// checkInvariants asserts the counter identities that must hold at every
// partial horizon of a non-perturbing run:
//   - Slot() == s + Result().Slots (the engine is exactly where its counter
//     says it is);
//   - every stepped slot is exactly one of collision / silence / success;
//   - Rounds and SuccessSlot stay at their sentinels until success, then
//     pin to the success slot.
func checkInvariants(t *testing.T, name string, x stepper, s int64) {
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
			t.Fatalf("%s: inconsistent success fields %+v (s=%d)", name, r, s)
		}
		if !x.Done() {
			t.Fatalf("%s: succeeded but not done", name)
		}
	} else if r.SuccessSlot != -1 || r.Rounds != -1 || r.Winner != 0 {
		t.Fatalf("%s: success sentinels disturbed before success: %+v", name, r)
	}
	if r.Transmissions+r.Listens < r.Slots {
		// At least one station is awake at every stepped slot (time starts
		// at the first wake), so every slot costs at least one energy unit.
		t.Fatalf("%s: energy %d below stepped slots %d", name, r.Energy(), r.Slots)
	}
}

// TestMidRunInvariants drives Engine and Kernel through identical randomized
// workloads with arbitrary RunTo break points, asserting the counter
// invariants at every stop — partial-horizon coverage on both execution
// paths. The algorithms are kernel-eligible, unlike the seed-sensitive paper
// algorithms: rounds alternate between the local-clock localssf under
// staggered wakes and roundrobin, whose trials on up to 300 ids span many
// words and often outlast the horizon.
func TestMidRunInvariants(t *testing.T) {
	src := rng.New(0x111)
	for round := 0; round < 25; round++ {
		algo := model.Algorithm(core.NewLocalSSF())
		if round%2 == 1 {
			algo = core.NewRoundRobin()
		}
		n := 2 + src.Intn(300)
		k := 1 + src.Intn(min(n, 16))
		seed := src.Uint64()
		ids := rng.New(rng.Derive(seed, 2)).Sample(n, k)
		wakes := make([]int64, k)
		wsrc := rng.New(rng.Derive(seed, 3))
		for i := range wakes {
			wakes[i] = wsrc.Int63n(25)
		}
		w := model.WakePattern{IDs: ids, Wakes: wakes}
		p := model.Params{N: n, S: -1, Seed: seed}
		horizon := int64(30 + src.Intn(400))
		opt := sim.Options{Horizon: horizon, Seed: seed}

		eng := sim.NewEngine()
		if err := eng.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		kn := kernel.New()
		if err := kn.Reset(algo, p, w, opt); err != nil {
			t.Fatal(err)
		}
		s := w.FirstWake()
		for _, x := range []struct {
			name string
			st   stepper
		}{{"engine", eng}, {"kernel", kn}} {
			u := s
			for !x.st.Done() {
				u += 1 + int64(src.Intn(120))
				x.st.RunTo(u)
				checkInvariants(t, x.name, x.st, s)
				// RunTo must be idempotent at the same bound.
				before := x.st.Result()
				x.st.RunTo(u)
				if x.st.Result() != before {
					t.Fatalf("%s: second RunTo(%d) changed the result", x.name, u)
				}
			}
			// Done at the horizon without success still reports Slots ==
			// horizon (failures are priced at the full horizon upstream).
			if r := x.st.Result(); !r.Succeeded && r.Slots != horizon {
				t.Fatalf("%s: failed run stepped %d slots, horizon %d", x.name, r.Slots, horizon)
			}
		}
		if eng.Result() != kn.Result() {
			t.Fatalf("round %d: engine %+v != kernel %+v", round, eng.Result(), kn.Result())
		}
	}
}

// TestRunToHorizonEdge pins the done-flag edge both executors share: RunTo
// exactly at the horizon boundary leaves done false (no step past the end
// was attempted); only a RunTo beyond it flips done.
func TestRunToHorizonEdge(t *testing.T) {
	algo := core.NewRoundRobin()
	p := model.Params{N: 6, S: -1}
	// Two stations sharing residues collide forever: n=6 with IDs 1 and 1+3?
	// Round-robin never collides, so instead keep k=1 silent long enough by
	// picking a horizon that ends before the station's residue slot.
	w := model.WakePattern{IDs: []int{5}, Wakes: []int64{0}}
	opt := sim.Options{Horizon: 3, Seed: 1} // station 5 transmits at slot 4
	for _, build := range []struct {
		name string
		mk   func() stepper
	}{
		{"engine", func() stepper {
			e := sim.NewEngine()
			if err := e.Reset(algo, p, w, opt); err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"kernel", func() stepper {
			k := kernel.New()
			if err := k.Reset(algo, p, w, opt); err != nil {
				t.Fatal(err)
			}
			return k
		}},
	} {
		x := build.mk()
		if x.RunTo(3) {
			t.Errorf("%s: RunTo(horizon) reported done without attempting a step past it", build.name)
		}
		if r := x.Result(); r.Slots != 3 || r.Succeeded {
			t.Errorf("%s: at the boundary: %+v", build.name, r)
		}
		if !x.RunTo(4) {
			t.Errorf("%s: RunTo past the horizon must flip done", build.name)
		}
		if r := x.Result(); r.Slots != 3 || r.Succeeded {
			t.Errorf("%s: flipping done must not step extra slots: %+v", build.name, r)
		}
	}
}
