package core

import (
	"fmt"
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

// TestWakeProbeMatchesBuild checks every wake prober's TransmitsAtWake
// against its Build: for a station woken at 0, on each boundary and one slot
// either side of it, the probe answers what the built schedule says about
// the wake slot, with a nil source and with a live one. Each algorithm must
// answer both ways somewhere, so a probe stuck at one answer cannot pass.
func TestWakeProbeMatchesBuild(t *testing.T) {
	for sel := uint8(0); sel < 8; sel++ {
		var answers [2]int
		for _, n := range []int{2, 3, 256, 1024} {
			a, p := probeAlgo(sel, n, 11)
			ids := []int{1, 2, n / 2, n - 1, n}
			if n <= 256 {
				ids = ids[:0]
				for id := 1; id <= n; id++ {
					ids = append(ids, id)
				}
			}
			wakes := []int64{0, 1, 2}
			for _, b := range probeBoundaries(a, p) {
				wakes = append(wakes, b-1, b, b+1)
			}
			for _, id := range ids {
				for _, wake := range wakes {
					name := fmt.Sprintf("%s %+v id=%d wake=%d", a.Name(), p, id, wake)
					got, want := a.TransmitsAtWake(p, id, wake, nil), a.Build(p, id, wake, nil)(wake)
					if got != want {
						t.Fatalf("%s, nil source: probe %v, schedule %v", name, got, want)
					}
					if got {
						answers[1]++
					} else {
						answers[0]++
					}
					seed := rng.Derive(uint64(n), uint64(id))
					if got, want := a.TransmitsAtWake(p, id, wake, rng.New(seed)), a.Build(p, id, wake, rng.New(seed))(wake); got != want {
						t.Fatalf("%s, live source: probe %v, schedule %v", name, got, want)
					}
				}
			}
		}
		if answers[0] == 0 || answers[1] == 0 {
			a, _ := probeAlgo(sel, 2, 11)
			t.Errorf("%s: the probe answered false %d times and true %d times", a.Name(), answers[0], answers[1])
		}
	}
}

// FuzzWakeProbe checks TransmitsAtWake against Build's schedule at arbitrary
// (algorithm, n, id, wake, seed), both at the wake slot drawn and at the
// next boundary at or after it, where a waiting station first transmits.
func FuzzWakeProbe(f *testing.F) {
	f.Add(uint8(0), uint16(256), uint16(3), uint32(7), uint64(1))
	f.Add(uint8(1), uint16(2), uint16(2), uint32(0), uint64(2))
	f.Add(uint8(2), uint16(1024), uint16(1024), uint32(100), uint64(3))
	f.Add(uint8(3), uint16(3), uint16(1), uint32(4), uint64(4))
	f.Add(uint8(4), uint16(300), uint16(17), uint32(11), uint64(5))
	f.Add(uint8(5), uint16(64), uint16(64), uint32(3), uint64(6))
	f.Add(uint8(6), uint16(500), uint16(250), uint32(9999), uint64(7))
	f.Add(uint8(7), uint16(17), uint16(5), uint32(12345), uint64(8))
	f.Fuzz(func(t *testing.T, sel uint8, rawN, rawID uint16, rawWake uint32, seed uint64) {
		n := int(rawN)%1100 + 2
		id := int(rawID)%n + 1
		a, p := probeAlgo(sel, n, seed)
		wakes := []int64{int64(rawWake)}
		switch a := a.(type) {
		case *WakeupC:
			wakes = append(wakes, a.Spec(p).Mu(wakes[0]))
		case *WaitAndGo:
			wakes = append(wakes, a.ladder(p).NextBoundary(wakes[0]))
		}
		for _, wake := range wakes {
			got := a.TransmitsAtWake(p, id, wake, rng.New(seed))
			if want := a.Build(p, id, wake, rng.New(seed))(wake); got != want {
				t.Fatalf("%s n=%d id=%d wake=%d seed=%d: probe %v, schedule %v", a.Name(), n, id, wake, seed, got, want)
			}
		}
	})
}
