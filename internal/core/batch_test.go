package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/schedule"
	"nsmac/internal/selectors"
)

// batchAlgos is how many algorithms batchAlgo names.
const batchAlgos = 15

// batchAlgo returns the batched algorithm the fuzzer's selector byte names,
// with params for universe n: rpd, rpdk with k known, wakeup(n) at its
// default constant, at c = 2 and without the window wait, BEB at its
// default cap and at cap 1, round-robin, wait_and_go with and without the
// boundary wait and wakeup_with_k with k known, select_among_the_first and
// wakeup_with_s with s = 0 known, and localssf with k unknown and known.
func batchAlgo(sel uint8, n int, seed uint64) (model.Batched, model.Params) {
	pC := model.Params{N: n, S: -1, Seed: seed}
	pK := model.Params{N: n, K: min(n, 16), S: -1, Seed: seed}
	pS := model.Params{N: n, S: 0, Seed: seed}
	switch sel % batchAlgos {
	case 0:
		return NewRPD(), pC
	case 1:
		return NewRPDWithK(), pK
	case 2:
		return NewWakeupC(), pC
	case 3:
		return &WakeupC{C: 2}, pC
	case 4:
		return &WakeupC{DisableWindowWait: true}, pC
	case 5:
		return NewBEB(), pC
	case 6:
		return &BEB{CapLog: 1}, pC
	case 7:
		return NewRoundRobin(), pC
	case 8:
		return NewWaitAndGo(), pK
	case 9:
		return &WaitAndGo{DisableWait: true}, pK
	case 10:
		return NewWakeupWithK(), pK
	case 11:
		return NewSelectAmongFirst(), pS
	case 12:
		return NewWakeupWithS(), pS
	case 13:
		return NewLocalSSF(), pC
	default:
		return NewLocalSSF(), pK
	}
}

// batchName tells apart the variants batchAlgo names: BEB's name omits its
// cap, and localssf's whether it knows k.
func batchName(a model.Batched, p model.Params) string {
	if b, ok := a.(*BEB); ok && b.CapLog > 0 {
		return fmt.Sprintf("beb(cap=%d)", b.CapLog)
	}
	if _, ok := a.(*LocalSSF); ok && p.KnowsK() {
		return fmt.Sprintf("%s(k=%d)", a.Name(), p.K)
	}
	return a.Name()
}

// batchSpan is how many slots past the last wake a cohort check runs: three
// RPD probability cycles, wakeup(n)'s row cycle or a selective ladder
// (wrapping either on small n) up to 4096 slots, BEB's doubling phase plus
// four capped windows, two round-robin cycles, two localssf ladder cycles
// plus a few position blocks up to 4096 slots, or an interleaving's odd
// component's span on the odd slots.
func batchSpan(a model.Batched, p model.Params) int64 {
	switch a := a.(type) {
	case *WakeupC:
		return min(a.Spec(p).CycleLength()+8, 4096)
	case *BEB:
		return 6 << uint(a.capFor(p))
	case RoundRobin:
		return 2*int64(p.N) + 8
	case *LocalSSF:
		return min(2*selectors.KSLadder(p.N, a.maxI(p)).Length()+64, 4096)
	case *WaitAndGo:
		return min(selectors.RandomLadder(a.ladder(p)).Length()+8, 4096)
	case *SelectAmongFirst:
		return min(selectors.RandomLadder(a.ladder(p)).Length()+8, 4096)
	case *schedule.Interleaved:
		return 2 * batchSpan(a.Odd().(model.Batched), schedule.MapParams(p, 1, p.Seed))
	default:
		return 3 * NewRPD().Ell(p)
	}
}

// batchRun is one cohort check: stations ids wake at wakes, and after slot
// injectAt's transmitters station inject joins at position pos of the join
// order (inject 0: none). The run spans wakes and span slots past the last.
type batchRun struct {
	ids    []int
	wakes  []int64
	inject int
	at     int64
	pos    int
	span   int64
}

// checkBatch drives a cohort the way the engine does and compares every
// slot's transmitters with the stations' Build schedules in the same join
// order: both sides draw from a stream Derive(seed, id), the join leaves
// each stream where Build leaves it, and JoinAt reports the injected
// station's Build answer at its wake slot. Before each slot's transmitters
// it asks Next(slot), which must not lie before slot, and no station joined
// by then may transmit before the slot Next returned.
func checkBatch(t *testing.T, a model.Batched, p model.Params, c model.Cohort, r batchRun) {
	t.Helper()
	w := model.WakePattern{IDs: r.ids, Wakes: r.wakes}
	keys := w.WakeOrder(nil)
	type ref struct {
		id    int
		tx    model.TransmitFunc
		quiet int64 // the latest slot Next has named since the station joined
	}
	var refs []ref
	build := func(id int, wake int64) (model.TransmitFunc, *rng.Source) {
		seed := rng.Derive(p.Seed, uint64(id))
		dense := rng.New(seed)
		f := a.Build(p, id, wake, dense)
		return f, rng.New(seed)
	}
	next := 0
	for slot := keys[0].Wake; slot <= keys[len(keys)-1].Wake+r.span; slot++ {
		for ; next < len(keys) && keys[next].Wake == slot; next++ {
			id := keys[next].ID
			f, src := build(id, slot)
			c.Join(id, slot, src)
			checkStream(t, a, p, id, slot, src)
			refs = append(refs, ref{id: id, tx: f})
		}
		u := c.Next(slot)
		if u < slot {
			t.Fatalf("%s %+v %+v: Next(%d) = %d", a.Name(), p, r, slot, u)
		}
		var want []int
		for i := range refs {
			s := &refs[i]
			s.quiet = max(s.quiet, u)
			if s.tx(slot) {
				if slot < s.quiet {
					t.Fatalf("%s %+v %+v: station %d transmits at slot %d, but Next named slot %d", a.Name(), p, r, s.id, slot, s.quiet)
				}
				want = append(want, s.id)
			}
		}
		if got := c.Transmitters(slot, nil); !slices.Equal(got, want) {
			t.Fatalf("%s %+v %+v: slot %d transmitters %v, want %v", a.Name(), p, r, slot, got, want)
		}
		if r.inject != 0 && slot == r.at {
			f, src := build(r.inject, slot)
			pos := min(r.pos, len(refs))
			if got, want := c.JoinAt(pos, r.inject, slot, src), f(slot); got != want {
				t.Fatalf("%s %+v %+v: injected station transmits at its wake: %v, want %v", a.Name(), p, r, got, want)
			}
			checkStream(t, a, p, r.inject, slot, src)
			refs = slices.Insert(refs, pos, ref{id: r.inject, tx: f})
		}
	}
}

// checkStream fails unless src, joined to a cohort as station id, is where
// Build leaves a fresh copy of the station's stream.
func checkStream(t *testing.T, a model.Batched, p model.Params, id int, wake int64, src *rng.Source) {
	t.Helper()
	built := rng.New(rng.Derive(p.Seed, uint64(id)))
	a.Build(p, id, wake, built)
	if src.Uint64() != built.Uint64() {
		t.Fatalf("%s: station %d's join and Build draw differently from its stream", a.Name(), id)
	}
}

// TestBatchMatchesBuild checks every batched algorithm's cohort against its
// Build schedules: random IDs waking together, in ties and staggered, past
// several probability cycles, with an injection at the first, middle and
// last join position. Each cohort is reused from the one before, as a warm
// engine reuses it.
func TestBatchMatchesBuild(t *testing.T) {
	for _, algo := range []model.Algorithm{
		NewRoundRobin(), NewSelectAmongFirst(), NewWaitAndGo(), NewWakeupWithS(),
		NewWakeupWithK(), NewWakeupC(), NewRPD(), NewRPDWithK(), NewLocalSSF(),
		NewBEB(), NewTreeCD(), NewKGConflictResolution(),
	} {
		if _, ok := algo.(model.Batched); ok && !batchCovers(algo) {
			t.Errorf("%s is batched but batchAlgo does not cover it", algo.Name())
		}
	}
	src := rng.New(41)
	var c model.Cohort
	for sel := uint8(0); sel < batchAlgos; sel++ {
		for _, n := range []int{2, 17, 256, 1024} {
			a, p := batchAlgo(sel, n, uint64(n)+7)
			k := min(n, 9)
			ids := src.Sample(nil, n, k)
			shuffled := slices.Clone(ids)
			for i := range shuffled {
				j := i + src.Intn(len(shuffled)-i)
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			}
			span := batchSpan(a, p)
			patterns := map[string][]int64{
				"simultaneous": make([]int64, k),
				"staggered":    make([]int64, k),
				"ties":         make([]int64, k),
			}
			for i := range k {
				patterns["staggered"][i] = int64(3 * i)
				patterns["ties"][i] = int64(i / 3 * 2)
			}
			spare := 0
			for id := n; id >= 1; id-- {
				if !slices.Contains(ids, id) {
					spare = id
					break
				}
			}
			for name, wakes := range patterns {
				for _, pos := range []int{0, k / 2, k} {
					r := batchRun{ids: shuffled, wakes: wakes, span: span, inject: spare, at: wakes[k-1] + 1, pos: pos}
					t.Run(fmt.Sprintf("%s/n=%d/%s/pos=%d", batchName(a, p), n, name, pos), func(t *testing.T) {
						c = a.Cohort(p, c)
						checkBatch(t, a, p, c, r)
					})
				}
			}
		}
	}
}

// batchCovers reports whether batchAlgo names an algorithm of algo's type.
func batchCovers(algo model.Algorithm) bool {
	for sel := range uint8(batchAlgos) {
		if a, _ := batchAlgo(sel, 2, 0); reflect.TypeOf(a) == reflect.TypeOf(algo) {
			return true
		}
	}
	return false
}

// FuzzBatchMatchesBuild checks the cohort against Build at arbitrary
// (algorithm, n, k, wakes, injection): k stations from a seeded sample of
// [1, n] wake at seeded offsets up to spread apart, and one more station
// joins at position pos after slot at's transmitters. The run spans 70 to
// 600 slots past the last wake.
func FuzzBatchMatchesBuild(f *testing.F) {
	f.Add(uint8(0), uint16(256), uint8(4), uint8(0), uint16(3), uint8(0), uint64(1))
	f.Add(uint8(1), uint16(1024), uint8(16), uint8(5), uint16(40), uint8(8), uint64(2))
	f.Add(uint8(0), uint16(2), uint8(1), uint8(1), uint16(0), uint8(1), uint64(3))
	f.Add(uint8(1), uint16(65), uint8(30), uint8(30), uint16(200), uint8(255), uint64(4))
	f.Add(uint8(2), uint16(256), uint8(8), uint8(40), uint16(100), uint8(3), uint64(5))
	f.Add(uint8(3), uint16(17), uint8(5), uint8(9), uint16(7), uint8(0), uint64(6))
	f.Add(uint8(4), uint16(1024), uint8(12), uint8(3), uint16(91), uint8(6), uint64(7))
	f.Add(uint8(5), uint16(1024), uint8(20), uint8(10), uint16(500), uint8(9), uint64(8))
	f.Add(uint8(6), uint16(2), uint8(1), uint8(0), uint16(1), uint8(0), uint64(9))
	f.Add(uint8(7), uint16(17), uint8(6), uint8(20), uint16(13), uint8(2), uint64(10))
	f.Add(uint8(8), uint16(256), uint8(10), uint8(60), uint16(150), uint8(4), uint64(11))
	f.Add(uint8(9), uint16(64), uint8(7), uint8(5), uint16(30), uint8(1), uint64(12))
	f.Add(uint8(10), uint16(1024), uint8(16), uint8(33), uint16(77), uint8(8), uint64(13))
	f.Add(uint8(11), uint16(256), uint8(9), uint8(0), uint16(41), uint8(5), uint64(14))
	f.Add(uint8(12), uint16(65), uint8(12), uint8(3), uint16(8), uint8(6), uint64(15))
	f.Add(uint8(13), uint16(256), uint8(6), uint8(50), uint16(300), uint8(3), uint64(16))
	f.Add(uint8(14), uint16(1024), uint8(16), uint8(2), uint16(90), uint8(7), uint64(17))
	f.Fuzz(func(t *testing.T, sel uint8, rawN uint16, rawK, spread uint8, at uint16, pos uint8, seed uint64) {
		n := int(rawN)%1100 + 2
		k := int(rawK)%min(n-1, 32) + 1
		a, p := batchAlgo(sel, n, seed)
		src := rng.New(seed)
		ids := src.Sample(nil, n, k+1)
		inject := ids[src.Intn(k+1)]
		ids = slices.DeleteFunc(ids, func(id int) bool { return id == inject })
		wakes := make([]int64, k)
		for i := range wakes {
			wakes[i] = int64(src.Intn(int(spread) + 1))
		}
		last := slices.Max(wakes)
		span := max(min(batchSpan(a, p), 600), 70)
		r := batchRun{ids: ids, wakes: wakes, span: span, inject: inject, at: last + int64(at)%span, pos: int(pos)}
		checkBatch(t, a, p, a.Cohort(p, nil), r)
	})
}

// BenchmarkRPDCoins times one slot of k awake RPD stations both ways: a
// Build closure call per station, and one cohort call.
func BenchmarkRPDCoins(b *testing.B) {
	const k = 64
	a, p := NewRPD(), model.Params{N: 1024, S: -1, Seed: 3}
	b.Run("closures", func(b *testing.B) {
		fs := make([]model.TransmitFunc, k)
		for i := range fs {
			fs[i] = a.Build(p, i+1, 0, rng.New(uint64(i)))
		}
		var dst []int
		for slot := range int64(b.N) {
			dst = dst[:0]
			for i, f := range fs {
				if f(slot) {
					dst = append(dst, i+1)
				}
			}
		}
	})
	b.Run("cohort", func(b *testing.B) {
		c := a.Cohort(p, nil)
		for i := range k {
			c.Join(i+1, 0, rng.New(uint64(i)))
		}
		var dst []int
		for slot := range int64(b.N) {
			dst = c.Transmitters(slot, dst[:0])
		}
	})
}

// BenchmarkWakeupCCohort times one slot of k operative wakeup(n) stations
// both ways, at k = 16 and 256: a Build closure call per station, three
// hashes each, and one cohort call, which hashes each scanned row's column
// once and each station once. ns/op is ns per slot.
func BenchmarkWakeupCCohort(b *testing.B) {
	a, p := NewWakeupC(), model.Params{N: 1024, S: -1, Seed: 3}
	for _, k := range []int{16, 256} {
		b.Run(fmt.Sprintf("k=%d/closures", k), func(b *testing.B) {
			fs := make([]model.TransmitFunc, k)
			for i := range fs {
				fs[i] = a.Build(p, i+1, 0, nil)
			}
			var dst []int
			b.ResetTimer()
			for slot := range int64(b.N) {
				dst = dst[:0]
				for i, f := range fs {
					if f(slot) {
						dst = append(dst, i+1)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/cohort", k), func(b *testing.B) {
			c := a.Cohort(p, nil)
			for i := range k {
				c.Join(i+1, 0, nil)
			}
			var dst []int
			b.ResetTimer()
			for slot := range int64(b.N) {
				dst = c.Transmitters(slot, dst[:0])
			}
		})
	}
}

// BenchmarkInterleavedCohort times one slot of k awake wakeup_with_k
// stations, operative on the ladder, both ways, at k = 16 and 256: a Build
// closure call per station, through the interleaving's and wait_and_go's
// closures, and one cohort call, which on an odd slot hashes the ladder
// set's key once and each station once. ns/op is ns per slot.
func BenchmarkInterleavedCohort(b *testing.B) {
	a := NewWakeupWithK()
	for _, k := range []int{16, 256} {
		p := model.Params{N: 1024, K: k, S: -1, Seed: 3}
		b.Run(fmt.Sprintf("k=%d/closures", k), func(b *testing.B) {
			fs := make([]model.TransmitFunc, k)
			for i := range fs {
				fs[i] = a.Build(p, i+1, 0, rng.New(uint64(i)))
			}
			var dst []int
			b.ResetTimer()
			for slot := range int64(b.N) {
				dst = dst[:0]
				for i, f := range fs {
					if f(slot) {
						dst = append(dst, i+1)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/cohort", k), func(b *testing.B) {
			c := a.Cohort(p, nil)
			for i := range k {
				c.Join(i+1, 0, rng.New(uint64(i)))
			}
			var dst []int
			b.ResetTimer()
			for slot := range int64(b.N) {
				dst = c.Transmitters(slot, dst[:0])
			}
		})
	}
}
