package adversary

import (
	"testing"

	"nsmac/internal/core"
	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/sim"
)

// simRun replays a pattern and returns the measured rounds.
func simRun(algo model.Algorithm, p model.Params, w model.WakePattern, horizon int64) (int64, int, error) {
	res, _, err := sim.Run(algo, p, w, sim.Options{Horizon: horizon, Seed: p.Seed})
	if err != nil {
		return 0, 0, err
	}
	if !res.Succeeded {
		return horizon, 0, nil
	}
	return res.Rounds, res.Winner, nil
}

func TestGeneratorsProduceValidPatterns(t *testing.T) {
	n, k := 64, 7
	for _, g := range Suite() {
		w := g.Generate(n, k, 42)
		if err := w.Validate(n); err != nil {
			t.Errorf("%s: invalid pattern: %v", g.Name, err)
		}
		if w.K() != k {
			t.Errorf("%s: %d stations, want %d", g.Name, w.K(), k)
		}
		// Determinism.
		w2 := g.Generate(n, k, 42)
		for i := range w.IDs {
			if w.IDs[i] != w2.IDs[i] || w.Wakes[i] != w2.Wakes[i] {
				t.Errorf("%s: not deterministic", g.Name)
			}
		}
	}
}

func TestSimultaneousGenerator(t *testing.T) {
	w := Simultaneous(9).Generate(32, 5, 1)
	if w.FirstWake() != 9 || w.LastWake() != 9 {
		t.Errorf("simultaneous pattern not flat: %v", w.Wakes)
	}
}

func TestStaggeredGenerator(t *testing.T) {
	w := Staggered(2, 5).Generate(32, 4, 1)
	for i, wk := range w.Wakes {
		if wk != 2+int64(i)*5 {
			t.Errorf("staggered wake %d = %d, want %d", i, wk, 2+int64(i)*5)
		}
	}
}

func TestUniformWindowPinsStart(t *testing.T) {
	g := UniformWindow(7, 20)
	w := g.Generate(64, 6, 3)
	if w.FirstWake() != 7 {
		t.Errorf("first wake %d, want pinned 7", w.FirstWake())
	}
	for _, wk := range w.Wakes {
		if wk < 7 || wk > 27 {
			t.Errorf("wake %d outside window [7,27]", wk)
		}
	}
}

func TestBurstsGenerator(t *testing.T) {
	w := Bursts(0, 3, 10).Generate(64, 6, 5)
	// 6 stations in 3 bursts of 2: wakes 0,0,10,10,20,20.
	want := []int64{0, 0, 10, 10, 20, 20}
	for i := range want {
		if w.Wakes[i] != want[i] {
			t.Errorf("burst wakes = %v, want %v", w.Wakes, want)
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { UniformWindow(0, -1) },
		func() { Bursts(0, 0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSwapAgainstRoundRobin(t *testing.T) {
	// Theorem 2.1: every algorithm can be forced to min{k, n-k+1} rounds.
	// Against round-robin the swap adversary should reach at least that.
	for _, tc := range []struct{ n, k int }{
		{16, 2}, {16, 4}, {16, 8}, {16, 14}, {32, 5},
	} {
		p := model.Params{N: tc.n, S: -1, Seed: 11}
		rr := core.NewRoundRobin()
		res := Swap(rr, p, tc.k, rr.Horizon(tc.n, tc.k), false)
		bound := mathx.BoundLowerMinKN(tc.n, tc.k)
		if res.TheoremBound != bound {
			t.Errorf("n=%d k=%d: theorem bound %d, want %d", tc.n, tc.k, res.TheoremBound, bound)
		}
		// ForcedRounds counts rounds 0-based (t-s); the theorem counts
		// slots used, i.e. ForcedRounds+1 >= bound must hold.
		if res.ForcedRounds+1 < bound {
			t.Errorf("n=%d k=%d: forced only %d rounds, theorem promises %d",
				tc.n, tc.k, res.ForcedRounds+1, bound)
		}
		if len(res.Witness) != tc.k {
			t.Errorf("witness has %d stations, want %d", len(res.Witness), tc.k)
		}
		if res.Iterations < 1 || res.DistinctRounds < 1 {
			t.Errorf("degenerate search: %+v", res)
		}
	}
}

func TestSwapGreedyAtLeastAsStrong(t *testing.T) {
	n, k := 12, 4
	p := model.Params{N: n, S: -1, Seed: 13}
	rr := core.NewRoundRobin()
	plain := Swap(rr, p, k, rr.Horizon(n, k), false)
	greedy := Swap(rr, p, k, rr.Horizon(n, k), true)
	if greedy.ForcedRounds < plain.ForcedRounds {
		t.Errorf("greedy (%d) weaker than plain (%d)", greedy.ForcedRounds, plain.ForcedRounds)
	}
}

func TestSwapAgainstWakeupWithK(t *testing.T) {
	// The upper-bound algorithms must also obey the lower bound: the
	// adversary forces at least min{k, n-k+1} rounds (sanity that the
	// implementation does not cheat the model).
	n, k := 24, 4
	p := model.Params{N: n, K: k, S: -1, Seed: 15}
	algo := core.NewWakeupWithK()
	res := Swap(algo, p, k, core.WakeupWithKHorizon(n, k), false)
	if res.ForcedRounds+1 < res.TheoremBound {
		t.Errorf("forced %d+1 rounds < theorem bound %d", res.ForcedRounds, res.TheoremBound)
	}
	if res.ForcedRounds >= core.WakeupWithKHorizon(n, k) {
		t.Error("wakeup_with_k failed under the swap adversary")
	}
}

func TestSwapWitnessReproducible(t *testing.T) {
	// Re-simulating the witness must reproduce ForcedRounds.
	n, k := 16, 5
	p := model.Params{N: n, S: -1, Seed: 20}
	rr := core.NewRoundRobin()
	res := Swap(rr, p, k, rr.Horizon(n, k), false)
	w := model.Simultaneous(res.Witness, 0)
	rerun, _, err := simRun(rr, p, w, rr.Horizon(n, k))
	if err != nil {
		t.Fatal(err)
	}
	if rerun != res.ForcedRounds {
		t.Errorf("witness replay gives %d rounds, adversary claimed %d", rerun, res.ForcedRounds)
	}
}

func TestSwapPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Swap(core.NewRoundRobin(), model.Params{N: 4, S: -1}, 5, 10, false)
}
