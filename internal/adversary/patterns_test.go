package adversary

import (
	"testing"

	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// whiteBox runs one trial of a white-box generator on a fresh engine over
// the paper channel and returns the pattern it woke.
func whiteBox(g Generator, algo model.Algorithm, p model.Params, k int, horizon int64, seed uint64) model.WakePattern {
	w, _, err := g.VsAlgo(sim.NewEngine(), algo, p, k, seed, sim.Options{Horizon: horizon, Seed: p.Seed})
	if err != nil {
		panic(err)
	}
	return w
}

func TestSpoilerPatternGenerator(t *testing.T) {
	n, k := 64, 6
	p := model.Params{N: n, K: k, S: -1, Seed: 21}
	abl := &core.WaitAndGo{DisableWait: true}
	horizon := abl.Horizon(n, k)

	g := SpoilerPattern()
	if !g.WhiteBox() || g.Generate != nil {
		t.Fatal("spoiler generator must be white-box only")
	}
	w := whiteBox(g, abl, p, k, horizon, 42)
	if err := w.Validate(n); err != nil {
		t.Fatalf("spoiler pattern invalid: %v", err)
	}
	if w.K() > k {
		t.Fatalf("spoiler woke %d stations, budget %d", w.K(), k)
	}
	// Determinism in (algo, p, k, horizon, seed).
	w2 := whiteBox(g, abl, p, k, horizon, 42)
	for i := range w.IDs {
		if w.IDs[i] != w2.IDs[i] || w.Wakes[i] != w2.Wakes[i] {
			t.Fatal("spoiler generator not deterministic")
		}
	}
	// Different seeds probe different initial stations (almost surely).
	w3 := whiteBox(g, abl, p, k, horizon, 43)
	if w3.IDs[0] == w.IDs[0] {
		w3 = whiteBox(g, abl, p, k, horizon, 44)
		if w3.IDs[0] == w.IDs[0] {
			t.Error("seed does not move the spoiler's initial station")
		}
	}
}

func TestSpoilerPredictsRandomizedSchedules(t *testing.T) {
	// The spoiler probes schedules with the same derived streams the
	// engine uses, so replaying its pattern with Options.Seed == p.Seed
	// reproduces the attack exactly even against a randomized algorithm.
	n, k := 48, 5
	p := model.Params{N: n, S: -1, Seed: 77}
	a := core.NewRPD()
	horizon := a.Horizon(n, k)
	res := spoil(a, p, k, horizon, 7)
	if err := res.Pattern.Validate(n); err != nil {
		t.Fatalf("pattern invalid: %v", err)
	}
	rounds, _, err := simRun(a, p, res.Pattern, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != res.Rounds {
		t.Errorf("replay gives %d rounds, spoiler predicted %d", rounds, res.Rounds)
	}
}

func TestSwapPatternGenerator(t *testing.T) {
	n, k := 16, 5
	p := model.Params{N: n, S: -1, Seed: 20}
	rr := core.NewRoundRobin()
	horizon := rr.Horizon(n, k)

	g := SwapPattern(false)
	if !g.WhiteBox() {
		t.Fatal("swap generator must be white-box")
	}
	w := whiteBox(g, rr, p, k, horizon, 0)
	if err := w.Validate(n); err != nil {
		t.Fatalf("swap witness pattern invalid: %v", err)
	}
	if w.K() != k {
		t.Fatalf("witness has %d stations, want %d", w.K(), k)
	}
	if w.FirstWake() != 0 || w.LastWake() != 0 {
		t.Error("swap witness must wake simultaneously at slot 0")
	}
	// The witness is the search's worst set: replaying it must force at
	// least as many rounds as the search reported forcing.
	want := Swap(rr, p, k, horizon, false).ForcedRounds
	rounds, _, err := simRun(rr, p, w, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != want {
		t.Errorf("witness replay gives %d rounds, search forced %d", rounds, want)
	}
}

func TestSwapPatternSurvivesInstantWinners(t *testing.T) {
	// An algorithm that succeeds in round 0 for every explored witness set
	// used to leave the Swap witness empty (round 0 never exceeded the
	// zero-initialized ForcedRounds); the generator must still produce a
	// valid pattern. k = n pins the explored set to the full universe.
	n := 4
	p := model.Params{N: n, S: -1, Seed: 1}
	w := whiteBox(SwapPattern(false), onlyOne{}, p, n, 10, 0)
	if err := w.Validate(n); err != nil {
		t.Fatalf("instant-winner witness invalid: %v", err)
	}
	if w.K() != n {
		t.Errorf("witness has %d stations, want %d", w.K(), n)
	}
}

// onlyOne lets only station 1 ever transmit, so the full universe waking
// simultaneously succeeds in round 0.
type onlyOne struct{}

func (onlyOne) Name() string { return "onlyOne" }
func (onlyOne) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	return func(t int64) bool { return id == 1 }
}
