package schedule

import (
	"maps"
	"slices"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// always transmits in every slot. Each station draws one word from its
// stream as it is built, and the algorithm records the draw under the
// station's ID.
type always struct{ draws map[int]uint64 }

func (a *always) Name() string { return "always" }

func (a *always) Build(p model.Params, id int, wake int64, src *rng.Source) model.TransmitFunc {
	a.draw(id, src)
	return func(int64) bool { return true }
}

func (a *always) draw(id int, src *rng.Source) {
	if src != nil {
		a.draws[id] = src.Uint64()
	}
}

// batchedAlways is always with a cohort of its own, which reads each
// station's stream only while it joins.
type batchedAlways struct{ *always }

func (a batchedAlways) Cohort(p model.Params, prev model.Cohort) model.Cohort {
	return &alwaysCohort{a: a.always}
}

type alwaysCohort struct {
	a   *always
	ids []int
}

func (c *alwaysCohort) Join(id int, _ int64, src *rng.Source) {
	c.a.draw(id, src)
	c.ids = append(c.ids, id)
}

func (c *alwaysCohort) JoinAt(i, id int, _ int64, src *rng.Source) bool {
	c.a.draw(id, src)
	c.ids = slices.Insert(c.ids, i, id)
	return true
}

func (c *alwaysCohort) Transmitters(_ int64, dst []int) []int { return append(dst, c.ids...) }

func (c *alwaysCohort) Next(from int64) int64 { return from }

// TestInterleavedDeferredJoin injects a station into the middle of an
// interleaving of two always-transmitting components, on an even and an
// odd slot, with components on closures and on cohorts of their own. The
// station joins its slot's component at once and the other one at the next
// slot, where it transmits in join order, ahead of the stations behind it
// and of the one woken in that slot; the cohort does not skip that slot;
// and each component's stations draw from the child streams Build derives.
func TestInterleavedDeferredJoin(t *testing.T) {
	p := model.Params{N: 16, S: -1, Seed: 3}
	stream := func(id int) *rng.Source { return rng.New(rng.Derive(p.Seed, uint64(id))) }
	for _, batched := range []bool{false, true} {
		for _, at := range []int64{4, 5} {
			even, odd := &always{map[int]uint64{}}, &always{map[int]uint64{}}
			il := NewInterleaved("always", even, odd)
			if batched {
				il = NewInterleaved("always", batchedAlways{even}, batchedAlways{odd})
			}
			c := il.Cohort(p, nil)
			for _, id := range []int{5, 3, 8, 1} {
				c.Join(id, 0, stream(id))
			}
			for slot := range at + 1 {
				if got, want := c.Transmitters(slot, nil), []int{5, 3, 8, 1}; !slices.Equal(got, want) {
					t.Fatalf("batched %v: slot %d transmitters %v, want %v", batched, slot, got, want)
				}
			}
			if !c.JoinAt(2, 7, at, stream(7)) {
				t.Fatalf("batched %v: station 7 injected at %d does not transmit there", batched, at)
			}
			c.Join(2, at+1, stream(2))
			if got := c.Next(at + 1); got != at+1 {
				t.Fatalf("batched %v, injected at %d: Next(%d) = %d with a join pending", batched, at, at+1, got)
			}
			for slot := at + 1; slot <= at+3; slot++ {
				if got, want := c.Transmitters(slot, nil), []int{5, 3, 7, 8, 1, 2}; !slices.Equal(got, want) {
					t.Fatalf("batched %v, injected at %d: slot %d transmitters %v, want %v", batched, at, slot, got, want)
				}
			}

			builtEven, builtOdd := &always{map[int]uint64{}}, &always{map[int]uint64{}}
			built := NewInterleaved("always", builtEven, builtOdd)
			for id, wake := range map[int]int64{5: 0, 3: 0, 8: 0, 1: 0, 7: at, 2: at + 1} {
				built.Build(p, id, wake, stream(id))
			}
			if !maps.Equal(even.draws, builtEven.draws) || !maps.Equal(odd.draws, builtOdd.draws) {
				t.Fatalf("batched %v, injected at %d: components drew %v and %v, Build %v and %v",
					batched, at, even.draws, odd.draws, builtEven.draws, builtOdd.draws)
			}
		}
	}
}

// wakeOnly transmits only in its wake slot, and its cohort names that slot
// as each station's next attempt.
type wakeOnly struct{}

func (wakeOnly) Name() string { return "wake_only" }

func (wakeOnly) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	return func(t int64) bool { return t == wake }
}

func (wakeOnly) Cohort(p model.Params, prev model.Cohort) model.Cohort { return &wakeCohort{} }

type wakeCohort struct{ stations []model.WakeKey }

func (c *wakeCohort) Join(id int, wake int64, _ *rng.Source) {
	c.stations = append(c.stations, model.WakeKey{Wake: wake, ID: id})
}

func (c *wakeCohort) JoinAt(i, id int, wake int64, _ *rng.Source) bool {
	c.stations = slices.Insert(c.stations, i, model.WakeKey{Wake: wake, ID: id})
	return true
}

func (c *wakeCohort) Transmitters(t int64, dst []int) []int {
	for _, st := range c.stations {
		if st.Wake == t {
			dst = append(dst, st.ID)
		}
	}
	return dst
}

func (c *wakeCohort) Next(from int64) int64 {
	next := model.Never
	for _, st := range c.stations {
		if st.Wake >= from {
			next = min(next, st.Wake)
		}
	}
	return next
}

// TestInterleavedNext: the interleaving's Next is the earlier of its
// components' next attempts on the global clock, model.Never when both
// have none, and the slot itself while an injected station has yet to
// join the component whose slot it is.
func TestInterleavedNext(t *testing.T) {
	c := NewInterleaved("wake_only", wakeOnly{}, wakeOnly{}).Cohort(model.Params{N: 4, S: -1}, nil)
	c.Join(1, 0, nil)
	for slot, want := range []int64{0, 1, model.Never} {
		if got := c.Next(int64(slot)); got != want {
			t.Fatalf("Next(%d) = %d, want %d", slot, got, want)
		}
		c.Transmitters(int64(slot), nil)
	}
	if !c.JoinAt(0, 2, 2, nil) {
		t.Fatal("station 2 injected at slot 2 does not transmit there")
	}
	if got := c.Next(3); got != 3 {
		t.Fatalf("Next(3) = %d with station 2's odd-slot join pending, want 3", got)
	}
	if got := c.Transmitters(3, nil); !slices.Equal(got, []int{2}) {
		t.Fatalf("slot 3 transmitters %v, want [2]", got)
	}
	if got := c.Next(4); got != model.Never {
		t.Fatalf("Next(4) = %d, want model.Never", got)
	}
}
