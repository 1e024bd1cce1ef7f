package core

import (
	"fmt"
	"testing"

	"nsmac/internal/matrix"
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// bebReference is BEB's schedule written without any shortcut: walk the
// windows from the wake slot, hashing each one, until the one holding t.
func bebReference(personal uint64, capLog int, wake int64, id int, t int64) bool {
	if t < wake {
		return false
	}
	off := t - wake
	var start int64
	for r := 0; ; r++ {
		e := min(r+1, capLog)
		w := int64(1) << uint(e)
		if off < start+w {
			return off == start+int64(rng.Hash3(personal, uint64(r), uint64(w), uint64(id))%uint64(w))
		}
		start += w
	}
}

// wakeupCReference is WakeupC's schedule without a cursor: the row from
// RowAt and membership through Member, fresh for every slot.
func wakeupCReference(spec matrix.Spec, op int64, id int, t int64) bool {
	if t < op {
		return false
	}
	row, _ := spec.RowAt(op, t)
	return spec.Member(row, t, id)
}

// queryOrder is one named sequence of slots to query.
type queryOrder struct {
	name  string
	slots []int64
}

// queryOrders returns slot sequences over [lo, hi): forward, backward,
// every slot twice, pseudo-random jumps, and forward strides that skip
// slots.
func queryOrders(lo, hi int64) []queryOrder {
	var fwd, back, twice, jumps, strided []int64
	for t := lo; t < hi; t++ {
		fwd = append(fwd, t)
		back = append(back, hi-1-(t-lo))
		twice = append(twice, t, t)
	}
	src := rng.New(rng.Derive(uint64(lo), uint64(hi)))
	for i := int64(0); i < hi-lo; i++ {
		jumps = append(jumps, lo+src.Int63n(hi-lo))
	}
	for t := lo; t < hi; t += 7 {
		strided = append(strided, t)
	}
	return []queryOrder{{"forward", fwd}, {"backward", back}, {"repeated", twice}, {"jumping", jumps}, {"strided", strided}}
}

// checkOrders queries a fresh schedule in every order, and one schedule
// through all orders in turn, against the reference.
func checkOrders(t *testing.T, name string, build func() model.TransmitFunc, ref func(int64) bool, lo, hi int64) {
	t.Helper()
	shared := build()
	for _, order := range queryOrders(lo, hi) {
		fresh := build()
		for _, tt := range order.slots {
			want := ref(tt)
			if got := fresh(tt); got != want {
				t.Fatalf("%s, %s order: slot %d = %v, want %v", name, order.name, tt, got, want)
			}
			if got := shared(tt); got != want {
				t.Fatalf("%s, %s order after the others: slot %d = %v, want %v", name, order.name, tt, got, want)
			}
		}
	}
}

func TestBEBMatchesWindowWalk(t *testing.T) {
	for _, c := range []struct {
		n, capLog int
		wake      int64
	}{{64, 0, 0}, {64, 0, 37}, {1024, 0, 5}, {200, 3, 11}, {8, 1, 2}} {
		a := &BEB{CapLog: c.capLog}
		p := model.Params{N: c.n, S: -1, Seed: 3}
		capLog := a.capFor(p)
		for _, id := range []int{1, 5} {
			seed := rng.Derive(uint64(c.n), uint64(id))
			personal := rng.New(seed).Uint64()
			name := fmt.Sprintf("n=%d capLog=%d wake=%d id=%d", c.n, capLog, c.wake, id)
			// Past the doubling phase and several capped windows.
			hi := c.wake + 4<<uint(capLog+1)
			checkOrders(t, name,
				func() model.TransmitFunc { return a.Build(p, id, c.wake, rng.New(seed)) },
				func(tt int64) bool { return bebReference(personal, capLog, c.wake, id, tt) },
				c.wake-3, hi)
		}
	}
}

func TestWakeupCCursorMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name string
		a    *WakeupC
		n    int
		wake int64
	}{
		// n=4: ℓ = 16 columns and a 12-slot row cycle, so the forward scan
		// crosses many ℓ wraps and row-cycle restarts, out of phase.
		{"tiny", NewWakeupC(), 4, 0},
		{"tiny late wake", NewWakeupC(), 4, 5},
		// n=64: ℓ = 2304, row cycle 2268; three cycles cross both.
		{"n=64", NewWakeupC(), 64, 7},
		{"n=64 c=2", &WakeupC{C: 2}, 64, 1},
		{"n=64 no window wait", &WakeupC{DisableWindowWait: true}, 64, 4},
	} {
		p := model.Params{N: c.n, S: -1, Seed: 19}
		spec := c.a.Spec(p)
		op := spec.Mu(c.wake)
		if c.a.DisableWindowWait {
			op = c.wake
		}
		hi := op + 3*spec.CycleLength() + spec.Length() + 5
		for _, id := range []int{1, c.n} {
			checkOrders(t, fmt.Sprintf("%s id=%d", c.name, id),
				func() model.TransmitFunc { return c.a.Build(p, id, c.wake, nil) },
				func(tt int64) bool { return wakeupCReference(spec, op, id, tt) },
				c.wake-2, hi)
		}
	}
}

// TestBuildAllocs pins what one Build allocates. The spoiler adversary
// builds a schedule for every candidate station on every success slot, so
// an allocation added to Build multiplies in a white-box sweep. Each
// schedule is one closure; wakeupc's and localssf's cursors are one more
// object each, and wait_and_go and localssf take their ladders from the
// ladder cache. The interleaved algorithms add their two components'
// schedules and one object holding both components' streams.
func TestBuildAllocs(t *testing.T) {
	pC := model.Params{N: 256, S: -1, Seed: 5}
	pB := model.Params{N: 256, K: 16, S: -1, Seed: 5}
	// Station 3 wakes at 7: after s = 0 it sits out select_among_the_first;
	// at s = 7 it runs the ladder, one closure more.
	pLate := model.Params{N: 256, S: 0, Seed: 5}
	pFirst := model.Params{N: 256, S: 7, Seed: 5}
	for _, c := range []struct {
		algo model.Algorithm
		p    model.Params
		max  float64
	}{
		{NewBEB(), pC, 1},
		{NewWakeupC(), pC, 2},
		{NewRPD(), pC, 1},
		{NewRoundRobin(), pC, 1},
		{NewWaitAndGo(), pB, 1},
		{NewLocalSSF(), pB, 2},
		{NewWakeupWithK(), pB, 4},
		{NewWakeupWithS(), pLate, 3},
		{NewWakeupWithS(), pFirst, 4},
	} {
		var src rng.Source
		allocs := testing.AllocsPerRun(100, func() {
			src.Reseed(9)
			_ = c.algo.Build(c.p, 3, 7, &src)
		})
		if allocs > c.max {
			t.Errorf("%s: Build allocates %.0f objects, want at most %.0f", c.algo.Name(), allocs, c.max)
		}
	}
}
