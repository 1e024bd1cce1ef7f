package core

import (
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

func TestBEBSucceedsOnTypicalWorkloads(t *testing.T) {
	a := NewBEB()
	for _, tc := range []struct{ n, k int }{
		{64, 1}, {64, 4}, {256, 8}, {1024, 16},
	} {
		fails := 0
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			seed := rng.Derive(uint64(tc.n*tc.k), uint64(trial))
			p := model.Params{N: tc.n, S: -1, Seed: seed}
			w := model.Simultaneous(rng.New(seed).Sample(nil, tc.n, tc.k), 0)
			res, _, err := sim.Run(a, p, w, sim.Options{Horizon: a.Horizon(tc.n, tc.k), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Succeeded {
				fails++
			}
		}
		if fails > trials/5 {
			t.Errorf("n=%d k=%d: BEB failed %d/%d trials", tc.n, tc.k, fails, trials)
		}
	}
}

func TestBEBScheduleIsPure(t *testing.T) {
	// Build returns a pure function: re-querying the same slot or querying
	// out of order gives identical answers.
	a := NewBEB()
	p := model.Params{N: 128, S: -1, Seed: 5}
	src := rng.New(7)
	f := a.Build(p, 9, 13, src)
	var snapshot []bool
	for tt := int64(13); tt < 600; tt++ {
		snapshot = append(snapshot, f(tt))
	}
	// Replay backwards.
	for i := len(snapshot) - 1; i >= 0; i-- {
		tt := int64(13 + i)
		if f(tt) != snapshot[i] {
			t.Fatalf("BEB schedule impure at t=%d", tt)
		}
	}
}

func TestBEBOneAttemptPerWindow(t *testing.T) {
	a := NewBEB()
	p := model.Params{N: 64, S: -1, Seed: 11}
	f := a.Build(p, 3, 0, rng.New(1))
	capLog := a.capFor(p)
	// Walk the windows and count attempts in each.
	start := int64(0)
	for r := 0; r < capLog+5; r++ {
		e := r + 1
		if e > capLog {
			e = capLog
		}
		w := int64(1) << uint(e)
		attempts := 0
		for off := int64(0); off < w; off++ {
			if f(start + off) {
				attempts++
			}
		}
		if attempts != 1 {
			t.Fatalf("window %d ([%d,%d)): %d attempts, want 1", r, start, start+w, attempts)
		}
		start += w
	}
}

func TestBEBSilentBeforeWake(t *testing.T) {
	a := NewBEB()
	f := a.Build(model.Params{N: 64, S: -1, Seed: 2}, 5, 100, rng.New(3))
	for tt := int64(100) - 10; tt < 100; tt++ {
		if f(tt) {
			t.Fatal("BEB transmitted before wake")
		}
	}
}

func TestBEBCapLogOverride(t *testing.T) {
	a := &BEB{CapLog: 3}
	if got := a.capFor(model.Params{N: 1 << 20}); got != 3 {
		t.Errorf("capFor with override = %d, want 3", got)
	}
	if NewBEB().capFor(model.Params{N: 1024}) != 10 {
		t.Error("default cap should be ⌈log n⌉")
	}
	if a.Name() != "beb" {
		t.Error("name wrong")
	}
	if a.Horizon(1024, 4) <= 0 {
		t.Error("horizon must be positive")
	}
}

func TestBEBDifferentStationsDifferentSlots(t *testing.T) {
	// Stations with different personal seeds should pick different attempt
	// slots reasonably often — sanity against a constant-schedule bug.
	a := NewBEB()
	p := model.Params{N: 64, S: -1, Seed: 4}
	f1 := a.Build(p, 1, 0, rng.New(1))
	f2 := a.Build(p, 2, 0, rng.New(2))
	same := 0
	for tt := int64(0); tt < 500; tt++ {
		if f1(tt) && f2(tt) {
			same++
		}
	}
	if same > 6 {
		t.Errorf("stations collided on %d attempt slots out of ~9 windows", same)
	}
}
