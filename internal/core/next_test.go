package core

import (
	"fmt"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/selectors"
)

// sparseAlgo returns the sparse algorithm the fuzzer's selector byte names,
// with params for universe n: BEB at its default cap and at caps 1 and 3,
// round-robin, and localssf with k unknown and known.
func sparseAlgo(sel uint8, n int, seed uint64) (model.Sparse, model.Params) {
	pC := model.Params{N: n, S: -1, Seed: seed}
	switch sel % 6 {
	case 0:
		return NewBEB(), pC
	case 1:
		return &BEB{CapLog: 1}, pC
	case 2:
		return &BEB{CapLog: 3}, pC
	case 3:
		return NewRoundRobin(), pC
	case 4:
		return NewLocalSSF(), pC
	default:
		return NewLocalSSF(), model.Params{N: n, K: min(n, 4), S: -1, Seed: seed}
	}
}

// firstAttempts scans f over [0, hi) and returns, for every from in that
// range, the first slot ≥ from at which f returns true, or -1 where no
// such slot lies below hi.
func firstAttempts(f model.TransmitFunc, hi int64) []int64 {
	want := make([]int64, hi)
	next := int64(-1)
	for t := hi - 1; t >= 0; t-- {
		if f(t) {
			next = t
		}
		want[t] = next
	}
	return want
}

// TestNextAttemptMatchesBuild checks every sparse algorithm's BuildNext
// against its Build: from every slot, before the wake included, NextFunc
// names the first slot at which the dense schedule transmits. The span
// crosses BEB's doubling windows into several capped ones and several
// localssf position blocks and ladder cycles. NextFuncs are queried in every
// order, fresh and shared, and both builders leave the station's stream in
// the same state.
func TestNextAttemptMatchesBuild(t *testing.T) {
	for sel := uint8(0); sel < 6; sel++ {
		for _, n := range []int{2, 3, 256, 1024} {
			a, p := sparseAlgo(sel, n, 11)
			for _, c := range []struct {
				id   int
				wake int64
			}{{1, 0}, {n, 5}, {(n + 1) / 2, 37}} {
				name := fmt.Sprintf("%s %+v id=%d wake=%d", a.Name(), p, c.id, c.wake)
				seed := rng.Derive(uint64(n), uint64(c.id))
				dense, sparse := rng.New(seed), rng.New(seed)
				f := a.Build(p, c.id, c.wake, dense)
				a.BuildNext(p, c.id, c.wake, sparse)
				if dense.Uint64() != sparse.Uint64() {
					t.Fatalf("%s: Build and BuildNext draw differently from the stream", name)
				}
				hi := c.wake + nextSpan(a, p)
				want := firstAttempts(f, hi)
				shared := a.BuildNext(p, c.id, c.wake, rng.New(seed))
				for _, order := range queryOrders(0, hi) {
					fresh := a.BuildNext(p, c.id, c.wake, rng.New(seed))
					for _, from := range order.slots {
						if want[from] < 0 {
							continue
						}
						if got := fresh(from); got != want[from] {
							t.Fatalf("%s, %s order: next(%d) = %d, want %d", name, order.name, from, got, want[from])
						}
						if got := shared(from); got != want[from] {
							t.Fatalf("%s, %s order after the others: next(%d) = %d, want %d", name, order.name, from, got, want[from])
						}
					}
				}
			}
		}
	}
}

// nextSpan is how far past the wake TestNextAttemptMatchesBuild scans: BEB's
// doubling phase plus four capped windows, four round-robin periods, or two
// localssf ladder cycles plus a few blocks.
func nextSpan(a model.Sparse, p model.Params) int64 {
	switch a := a.(type) {
	case *BEB:
		return 6 << uint(a.capFor(p))
	case *LocalSSF:
		return 2*selectors.KSLadder(p.N, a.maxI(p)).Length() + 64
	default:
		return 4 * int64(p.N)
	}
}

// FuzzNextAttempt checks NextFunc(from) against the dense schedule at
// arbitrary (algorithm, n, id, wake, from, seed): Build's closure returns
// true at the named slot and false at every slot from from up to it.
func FuzzNextAttempt(f *testing.F) {
	f.Add(uint8(0), uint16(256), uint16(3), uint32(7), uint32(0), uint64(1))
	f.Add(uint8(1), uint16(2), uint16(2), uint32(0), uint32(9), uint64(2))
	f.Add(uint8(2), uint16(1024), uint16(1024), uint32(100), uint32(5000), uint64(3))
	f.Add(uint8(3), uint16(3), uint16(1), uint32(4), uint32(2), uint64(4))
	f.Add(uint8(4), uint16(300), uint16(17), uint32(11), uint32(1234), uint64(5))
	f.Add(uint8(5), uint16(64), uint16(64), uint32(3), uint32(3), uint64(6))
	f.Fuzz(func(t *testing.T, sel uint8, rawN, rawID uint16, rawWake, rawFrom uint32, seed uint64) {
		n := int(rawN)%1100 + 2
		id := int(rawID)%n + 1
		wake := int64(rawWake % 5000)
		from := int64(rawFrom) % (wake + 20000)
		a, p := sparseAlgo(sel, n, seed)
		dense, sparse := rng.New(seed), rng.New(seed)
		tx := a.Build(p, id, wake, dense)
		next := a.BuildNext(p, id, wake, sparse)(from)
		if dense.Uint64() != sparse.Uint64() {
			t.Fatalf("%s: Build and BuildNext draw differently from the stream", a.Name())
		}
		if next < from || next == model.Never {
			t.Fatalf("%s n=%d id=%d wake=%d: next(%d) = %d", a.Name(), n, id, wake, from, next)
		}
		for s := from; s < next; s++ {
			if tx(s) {
				t.Fatalf("%s n=%d id=%d wake=%d: next(%d) = %d, but the station transmits at %d",
					a.Name(), n, id, wake, from, next, s)
			}
		}
		if !tx(next) {
			t.Fatalf("%s n=%d id=%d wake=%d: next(%d) = %d, a slot the station stays silent in",
				a.Name(), n, id, wake, from, next)
		}
	})
}
