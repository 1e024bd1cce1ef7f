package adversary

import (
	"testing"

	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/sim"
)

// spoil mounts the spoiler from firstID on a fresh engine over the paper
// channel, seeded like the algorithm's params.
func spoil(algo model.Algorithm, p model.Params, k int, horizon int64, firstID int) SpoilerResult {
	res, _, err := Spoiler(sim.NewEngine(), algo, p, k, firstID, sim.Options{Horizon: horizon, Seed: p.Seed})
	if err != nil {
		panic(err)
	}
	return res
}

func TestSpoilerDelaysAblatedWaitAndGo(t *testing.T) {
	n, k := 256, 8
	p := model.Params{N: n, K: k, S: -1, Seed: 3}
	std := core.NewWaitAndGo()
	abl := &core.WaitAndGo{DisableWait: true}
	horizon := std.Horizon(n, k)

	resStd := spoil(std, p, k, horizon, 1)
	resAbl := spoil(abl, p, k, horizon, 1)

	if !resStd.Succeeded {
		t.Fatalf("standard wait_and_go failed under spoiler: %+v", resStd)
	}
	if !resAbl.Succeeded {
		t.Fatalf("ablated wait_and_go suppressed entirely (acceptable in theory, but horizon should cover k spoils): %+v", resAbl)
	}
	// The wait barrier denies mid-family spoils: the standard variant can
	// be attacked only at family boundaries, so it must come out strictly
	// faster and with fewer spoils burned.
	if resAbl.Rounds <= resStd.Rounds {
		t.Errorf("spoiler did not hurt the ablated variant more: std=%d abl=%d",
			resStd.Rounds, resAbl.Rounds)
	}
	if resAbl.Spoiled <= resStd.Spoiled {
		t.Errorf("spoiler burned %d spoils on ablated vs %d on standard",
			resAbl.Spoiled, resStd.Spoiled)
	}
}

func TestSpoilerDelaysAblatedWakeupC(t *testing.T) {
	n, k := 256, 8
	p := model.Params{N: n, S: -1, Seed: 3}
	std := core.NewWakeupC()
	abl := &core.WakeupC{DisableWindowWait: true}
	horizon := std.Horizon(n, k)

	resStd := spoil(std, p, k, horizon, 1)
	resAbl := spoil(abl, p, k, horizon, 1)
	if !resStd.Succeeded || !resAbl.Succeeded {
		t.Fatalf("spoiler runs failed: std=%+v abl=%+v", resStd, resAbl)
	}
	if resAbl.Rounds <= resStd.Rounds {
		t.Errorf("µ-wait ablation not exposed: std=%d abl=%d", resStd.Rounds, resAbl.Rounds)
	}
}

func TestSpoilerPatternIsValidAndReplayable(t *testing.T) {
	n, k := 64, 6
	p := model.Params{N: n, K: k, S: -1, Seed: 9}
	abl := &core.WaitAndGo{DisableWait: true}
	res := spoil(abl, p, k, abl.Horizon(n, k), 1)
	if err := res.Pattern.Validate(n); err != nil {
		t.Fatalf("spoiler pattern invalid: %v", err)
	}
	if res.Pattern.K() > k {
		t.Fatalf("spoiler used %d stations, budget %d", res.Pattern.K(), k)
	}
	// Replaying the pattern through the simulator must reproduce the
	// attack's rounds exactly (the spoiler is white-box but honest).
	rounds, _, err := simRun(abl, p, res.Pattern, abl.Horizon(n, k))
	if err != nil {
		t.Fatal(err)
	}
	if rounds != res.Rounds {
		t.Errorf("replay gives %d rounds, spoiler claimed %d", rounds, res.Rounds)
	}
}

func TestSpoilerAgainstRoundRobinIsHarmless(t *testing.T) {
	// Round-robin never collides: waking extra stations cannot spoil a
	// solo slot because no two stations share a residue. The spoiler finds
	// no colliding partner and success happens at station 1's slot.
	n, k := 32, 4
	p := model.Params{N: n, S: -1, Seed: 2}
	rr := core.NewRoundRobin()
	res := spoil(rr, p, k, rr.Horizon(n, k), 1)
	if !res.Succeeded {
		t.Fatalf("round robin failed under spoiler: %+v", res)
	}
	if res.Spoiled != 0 {
		t.Errorf("spoiler claims %d spoils against round robin", res.Spoiled)
	}
	if res.Rounds != 0 {
		t.Errorf("station 1 should win at its own slot 0, got rounds=%d", res.Rounds)
	}
}

func TestSpoilerBudgetRespected(t *testing.T) {
	n := 128
	p := model.Params{N: n, K: 3, S: -1, Seed: 5}
	abl := &core.WaitAndGo{DisableWait: true}
	res := spoil(abl, p, 3, abl.Horizon(n, 3), 1)
	if res.Spoiled > 2 {
		t.Errorf("budget k-1=2 exceeded: %d spoils", res.Spoiled)
	}
}

func TestSpoilerPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	spoil(core.NewRoundRobin(), model.Params{N: 4, S: -1}, 0, 10, 1)
}
