package adversary

import (
	"reflect"
	"testing"

	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/sim"
)

// buildOnly hides every optional extension of the algorithm it wraps,
// model.WakeProber included, so the spoiler builds each candidate's
// schedule.
type buildOnly struct{ model.Algorithm }

// horizoned is an algorithm with its own safe simulation horizon.
type horizoned interface {
	model.Algorithm
	Horizon(n, k int) int64
}

// TestSpoilerProbeMatchesBuildPath: the spoiler's wake probes choose
// exactly the spoilers that building each candidate's schedule chooses, so
// the attack's pattern, rounds and verdict, and the run's Result, are the
// same on both paths. The wrapped algorithm hides model.Sparse too, so the
// Results also pin sparse injection against dense.
func TestSpoilerProbeMatchesBuildPath(t *testing.T) {
	for _, e := range []struct {
		algo   horizoned
		knowsK bool
	}{
		{core.NewRoundRobin(), false},
		{core.NewRPD(), false},
		{core.NewRPDWithK(), true},
		{core.NewWakeupC(), false},
		{&core.WakeupC{DisableWindowWait: true}, false},
		{core.NewWaitAndGo(), true},
		{&core.WaitAndGo{DisableWait: true}, true},
	} {
		if _, ok := e.algo.(model.WakeProber); !ok {
			t.Fatalf("%s: not a model.WakeProber", e.algo.Name())
		}
		for _, ch := range []model.ChannelModel{model.None(), model.Noisy(0.1), model.Jam(2)} {
			for _, c := range []struct{ n, k, first int }{
				{2, 2, 2}, {16, 4, 1}, {64, 8, 33}, {256, 16, 200}, {1024, 8, 1024},
			} {
				p := model.Params{N: c.n, S: -1, Seed: uint64(7 * c.n)}
				if e.knowsK {
					p.K = c.k
				}
				h := e.algo.Horizon(c.n, c.k)
				opt := sim.Options{Horizon: h, Seed: p.Seed, Channel: ch}
				got, gotRes, err := Spoiler(sim.NewEngine(), e.algo, p, c.k, c.first, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, wantRes, _ := Spoiler(sim.NewEngine(), buildOnly{e.algo}, p, c.k, c.first, opt)
				if !reflect.DeepEqual(got, want) || gotRes != wantRes {
					t.Errorf("%s %s n=%d k=%d first=%d: probed %+v %#v, built %+v %#v",
						e.algo.Name(), ch.Name(), c.n, c.k, c.first, got, gotRes, want, wantRes)
				}
			}
		}
	}
}

// countingProber counts the FirstWaker calls made on the prober it wraps.
type countingProber struct {
	model.WakeProber
	calls int
}

func (c *countingProber) FirstWaker(p model.Params, wake int64, seed uint64, taken []bool) int {
	c.calls++
	return c.WakeProber.FirstWaker(p, wake, seed, taken)
}

// TestSpoilerProbesOncePerSuccess: the spoiler asks the prober exactly once
// at each hooked success while budget remains, and never once the budget is
// spent. Every call but the last of a successful run names a spoiler, so
// the count is Spoiled, plus one when the run ended at a success the
// adversary still had budget for but no station to spoil it with. A
// spoiler that went back to probing station by station would call more.
func TestSpoilerProbesOncePerSuccess(t *testing.T) {
	ended := 0
	for _, e := range []struct {
		algo   horizoned
		knowsK bool
	}{
		{core.NewRoundRobin(), false},
		{core.NewRPD(), false},
		{core.NewRPDWithK(), true},
		{core.NewWakeupC(), false},
		{&core.WakeupC{DisableWindowWait: true}, false},
		{core.NewWaitAndGo(), true},
		{&core.WaitAndGo{DisableWait: true}, true},
	} {
		for _, ch := range []model.ChannelModel{model.None(), model.Noisy(0.1), model.Jam(2)} {
			for _, c := range []struct{ n, k, first int }{
				{2, 1, 1}, {2, 2, 2}, {16, 4, 1}, {64, 8, 33}, {256, 16, 200}, {1024, 64, 1024},
			} {
				p := model.Params{N: c.n, S: -1, Seed: uint64(7 * c.n)}
				if e.knowsK {
					p.K = c.k
				}
				opt := sim.Options{Horizon: e.algo.Horizon(c.n, c.k), Seed: p.Seed, Channel: ch}
				counted := &countingProber{WakeProber: e.algo.(model.WakeProber)}
				got, _, err := Spoiler(sim.NewEngine(), counted, p, c.k, c.first, opt)
				if err != nil {
					t.Fatal(err)
				}
				want := got.Spoiled
				if got.Succeeded && got.Spoiled < c.k-1 {
					want++
					ended++
				}
				if counted.calls != want {
					t.Errorf("%s %s n=%d k=%d first=%d: %d FirstWaker calls for %+v, want %d",
						e.algo.Name(), ch.Name(), c.n, c.k, c.first, counted.calls, got, want)
				}
			}
		}
	}
	if ended == 0 {
		t.Error("no run ended with budget left: the extra call is never checked")
	}
}

// TestSpoilerAllocsDoNotGrowWithN: a spoil asks the wake probe once, and
// the probe allocates nothing, so the attack's allocations on a warm engine
// depend on the spoilers it keeps, not on the universe size. Measured at
// k = 64: 4 allocations for round-robin and 9 for wakeupc at both sizes;
// building a schedule per candidate took 262 and 524 at n = 256, 1030 and
// 2061 at n = 1024.
func TestSpoilerAllocsDoNotGrowWithN(t *testing.T) {
	const k = 64
	for _, algo := range []horizoned{core.NewRoundRobin(), core.NewWakeupC()} {
		allocs := func(n int) float64 {
			p := model.Params{N: n, S: -1, Seed: 3}
			h := algo.Horizon(n, k)
			e := sim.NewEngine()
			opt := sim.Options{Horizon: h, Seed: p.Seed}
			return testing.AllocsPerRun(3, func() { Spoiler(e, algo, p, k, 1, opt) })
		}
		small, large := allocs(256), allocs(1024)
		t.Logf("%s: %.0f allocs at n=256, %.0f at n=1024", algo.Name(), small, large)
		if large > small || large > k {
			t.Errorf("%s: %.0f allocs at n=1024 against %.0f at n=256; want at most %d and no growth with n",
				algo.Name(), large, small, k)
		}
	}
}
