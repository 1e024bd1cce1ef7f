package core

import (
	"fmt"
	"slices"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// batchAlgo returns the batched algorithm the fuzzer's selector byte names,
// with params for universe n: rpd, and rpdk with k known.
func batchAlgo(sel uint8, n int, seed uint64) (model.Batched, model.Params) {
	if sel%2 == 0 {
		return NewRPD(), model.Params{N: n, S: -1, Seed: seed}
	}
	return NewRPDWithK(), model.Params{N: n, K: min(n, 16), S: -1, Seed: seed}
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
// station's Build answer at its wake slot.
func checkBatch(t *testing.T, a model.Batched, p model.Params, c model.Cohort, r batchRun) {
	t.Helper()
	w := model.WakePattern{IDs: r.ids, Wakes: r.wakes}
	keys := w.WakeOrder(nil)
	type ref struct {
		id int
		tx model.TransmitFunc
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
			refs = append(refs, ref{id, f})
		}
		var want []int
		for _, s := range refs {
			if s.tx(slot) {
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
			refs = slices.Insert(refs, pos, ref{r.inject, f})
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
		if _, ok := algo.(model.Batched); ok {
			if _, isRPD := algo.(*RPD); !isRPD {
				t.Errorf("%s is batched but batchAlgo does not cover it", algo.Name())
			}
		}
	}
	src := rng.New(41)
	var c model.Cohort
	for sel := uint8(0); sel < 2; sel++ {
		for _, n := range []int{2, 17, 256, 1024} {
			a, p := batchAlgo(sel, n, uint64(n)+7)
			k := min(n, 9)
			ids := src.Sample(n, k)
			shuffled := slices.Clone(ids)
			for i := range shuffled {
				j := i + src.Intn(len(shuffled)-i)
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			}
			ell := NewRPD().Ell(p)
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
					r := batchRun{ids: shuffled, wakes: wakes, span: 3 * ell, inject: spare, at: wakes[k-1] + 1, pos: pos}
					t.Run(fmt.Sprintf("%s/n=%d/%s/pos=%d", a.Name(), n, name, pos), func(t *testing.T) {
						c = a.Cohort(p, c)
						checkBatch(t, a, p, c, r)
					})
				}
			}
		}
	}
}

// FuzzBatchMatchesBuild checks the cohort against Build at arbitrary
// (algorithm, n, k, wakes, injection): k stations from a seeded sample of
// [1, n] wake at seeded offsets up to spread apart, and one more station
// joins at position pos after slot at's transmitters.
func FuzzBatchMatchesBuild(f *testing.F) {
	f.Add(uint8(0), uint16(256), uint8(4), uint8(0), uint16(3), uint8(0), uint64(1))
	f.Add(uint8(1), uint16(1024), uint8(16), uint8(5), uint16(40), uint8(8), uint64(2))
	f.Add(uint8(0), uint16(2), uint8(1), uint8(1), uint16(0), uint8(1), uint64(3))
	f.Add(uint8(1), uint16(65), uint8(30), uint8(30), uint16(200), uint8(255), uint64(4))
	f.Fuzz(func(t *testing.T, sel uint8, rawN uint16, rawK, spread uint8, at uint16, pos uint8, seed uint64) {
		n := int(rawN)%1100 + 2
		k := int(rawK)%min(n-1, 32) + 1
		a, p := batchAlgo(sel, n, seed)
		src := rng.New(seed)
		ids := src.Sample(n, k+1)
		inject := ids[src.Intn(k+1)]
		ids = slices.DeleteFunc(ids, func(id int) bool { return id == inject })
		wakes := make([]int64, k)
		for i := range wakes {
			wakes[i] = int64(src.Intn(int(spread) + 1))
		}
		last := slices.Max(wakes)
		r := batchRun{ids: ids, wakes: wakes, span: 70, inject: inject, at: last + int64(at)%70, pos: int(pos)}
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
