package core

import (
	"fmt"
	"slices"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// probeAlgo returns the wake-probing algorithm the fuzzer's selector byte
// names, with params for universe n: round-robin, rpd and rpdk, wakeupc at
// its default constant, at c=2 and without the window wait, and wait_and_go
// with and without its boundary wait.
func probeAlgo(sel uint8, n int, seed uint64) (model.WakeProber, model.Params) {
	pC := model.Params{N: n, S: -1, Seed: seed}
	pB := model.Params{N: n, K: min(n, 16), S: -1, Seed: seed}
	switch sel % 8 {
	case 0:
		return NewRoundRobin(), pC
	case 1:
		return NewRPD(), pC
	case 2:
		return NewRPDWithK(), pB
	case 3:
		return NewWakeupC(), pC
	case 4:
		return &WakeupC{C: 2}, pC
	case 5:
		return &WakeupC{DisableWindowWait: true}, pC
	case 6:
		return NewWaitAndGo(), pB
	default:
		return &WaitAndGo{DisableWait: true}, pB
	}
}

// probeBoundaries returns the slots at which a's schedule changes shape:
// round-robin's period, RPD's probability cycle, wakeupc's windows, matrix
// wrap and row cycle, and wait_and_go's family boundaries over two ladder
// cycles.
func probeBoundaries(a model.WakeProber, p model.Params) []int64 {
	switch a := a.(type) {
	case RoundRobin:
		return []int64{int64(p.N), 2 * int64(p.N)}
	case *RPD:
		return []int64{a.Ell(p), 2 * a.Ell(p)}
	case *WakeupC:
		spec := a.Spec(p)
		w := int64(spec.Window)
		return []int64{w, 2 * w, 3 * w, spec.CycleLength(), spec.Length(), spec.Length() + w}
	case *WaitAndGo:
		lad := a.ladder(p)
		var bs []int64
		for b := lad.NextBoundary(1); b <= 2*lad.Length(); b = lad.NextBoundary(b + 1) {
			bs = append(bs, b)
		}
		return bs
	}
	panic(fmt.Sprintf("probeBoundaries: unexpected %T", a))
}

// bruteFirstWaker is FirstWaker by definition: the smallest untaken ID
// whose schedule, built on its own stream Derive(seed, id), transmits at
// its wake slot.
func bruteFirstWaker(a model.WakeProber, p model.Params, wake int64, seed uint64, taken []bool) int {
	for id := 1; id <= p.N; id++ {
		if !taken[id] && a.Build(p, id, wake, rng.New(rng.Derive(seed, uint64(id))))(wake) {
			return id
		}
	}
	return 0
}

// randomTaken marks each ID taken with probability num/256, drawn from src.
func randomTaken(n int, num int, src *rng.Source) []bool {
	taken := make([]bool, n+1)
	for id := 1; id <= n; id++ {
		taken[id] = src.Intn(256) < num
	}
	return taken
}

// checkFirstWaker compares a's FirstWaker with the brute force on taken,
// then takes each answer in turn and asks again, up to four times, so the
// answer's own ID being taken is checked wherever there is an answer. It
// returns the first answer.
func checkFirstWaker(t *testing.T, a model.WakeProber, p model.Params, wake int64, seed uint64, taken []bool) int {
	t.Helper()
	taken = slices.Clone(taken)
	first := -1
	for range 5 {
		got, want := a.FirstWaker(p, wake, seed, taken), bruteFirstWaker(a, p, wake, seed, taken)
		if got != want {
			t.Fatalf("%s %+v wake=%d seed=%d taken=%v: FirstWaker %d, built schedules %d",
				a.Name(), p, wake, seed, takenIDs(taken), got, want)
		}
		if first < 0 {
			first = got
		}
		if got == 0 {
			break
		}
		taken[got] = true
	}
	return first
}

// takenIDs lists the taken IDs, for failure messages.
func takenIDs(taken []bool) []int {
	var ids []int
	for id, x := range taken {
		if x {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestWakeProbeMatchesBuild checks every wake prober's FirstWaker against
// the brute force over built schedules: at slots 0–2 and on each boundary
// and one slot either side of it, with no ID taken, random quarter and
// three-quarter taken sets, every ID taken, and each answer's own ID taken
// in turn. Each algorithm must name a station somewhere and name none
// somewhere else, so a probe stuck at one answer cannot pass.
func TestWakeProbeMatchesBuild(t *testing.T) {
	src := rng.New(5)
	for sel := uint8(0); sel < 8; sel++ {
		var answers [2]int
		for _, n := range []int{2, 3, 256, 1024} {
			a, p := probeAlgo(sel, n, 11)
			wakes := []int64{0, 1, 2}
			for _, b := range probeBoundaries(a, p) {
				wakes = append(wakes, b-1, b, b+1)
			}
			all := make([]bool, n+1)
			for id := range all {
				all[id] = true
			}
			for _, wake := range wakes {
				seed := rng.Derive(uint64(n), uint64(wake))
				for _, taken := range [][]bool{make([]bool, n+1), randomTaken(n, 64, src), randomTaken(n, 192, src), all} {
					if checkFirstWaker(t, a, p, wake, seed, taken) != 0 {
						answers[1]++
					} else {
						answers[0]++
					}
				}
			}
		}
		if answers[0] == 0 || answers[1] == 0 {
			a, _ := probeAlgo(sel, 2, 11)
			t.Errorf("%s: no station %d times, a station %d times", a.Name(), answers[0], answers[1])
		}
	}
}

// FuzzWakeProbe checks FirstWaker against the brute force over built
// schedules at arbitrary (algorithm, n, wake, seed) and a random taken set
// of arbitrary density, both at the wake slot drawn and at the next
// boundary at or after it, where a waiting station first transmits; each
// answer's own ID is then taken and the question asked again.
func FuzzWakeProbe(f *testing.F) {
	f.Add(uint8(0), uint16(256), uint32(7), uint64(1), uint64(1), uint8(0))
	f.Add(uint8(1), uint16(2), uint32(0), uint64(2), uint64(2), uint8(128))
	f.Add(uint8(2), uint16(1024), uint32(100), uint64(3), uint64(3), uint8(255))
	f.Add(uint8(3), uint16(3), uint32(4), uint64(4), uint64(4), uint8(64))
	f.Add(uint8(4), uint16(300), uint32(11), uint64(5), uint64(5), uint8(200))
	f.Add(uint8(5), uint16(64), uint32(3), uint64(6), uint64(6), uint8(32))
	f.Add(uint8(6), uint16(500), uint32(9999), uint64(7), uint64(7), uint8(16))
	f.Add(uint8(7), uint16(17), uint32(12345), uint64(8), uint64(8), uint8(250))
	f.Fuzz(func(t *testing.T, sel uint8, rawN uint16, rawWake uint32, seed, takenSeed uint64, density uint8) {
		n := int(rawN)%1100 + 2
		a, p := probeAlgo(sel, n, seed)
		wakes := []int64{int64(rawWake)}
		switch a := a.(type) {
		case *WakeupC:
			wakes = append(wakes, a.Spec(p).Mu(wakes[0]))
		case *WaitAndGo:
			wakes = append(wakes, a.ladder(p).NextBoundary(wakes[0]))
		}
		taken := randomTaken(n, int(density), rng.New(takenSeed))
		for _, wake := range wakes {
			checkFirstWaker(t, a, p, wake, seed, taken)
		}
	})
}
