package core

import (
	"math/bits"
	"slices"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// sliceTree is the plain-slice reference tree station: one stack entry per
// interval, the splitting rule with no run-length encoding.
type sliceTree struct {
	id, n   int
	stack   [][2]int
	retired bool
}

func newSliceTree(n, id int) *sliceTree {
	return &sliceTree{id: id, n: n, stack: [][2]int{{1, n}}}
}

func (s *sliceTree) willTransmit() bool {
	top := s.stack[len(s.stack)-1]
	return !s.retired && s.id >= top[0] && s.id <= top[1]
}

func (s *sliceTree) observe(fb model.Feedback, successID int) {
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	switch fb {
	case model.Collision:
		mid := (top[0] + top[1]) / 2
		s.stack = append(s.stack, [2]int{mid + 1, top[1]}, [2]int{top[0], mid})
	case model.Success:
		if successID == s.id {
			s.retired = true
		}
	}
	if len(s.stack) == 0 {
		s.stack = append(s.stack, [2]int{1, s.n})
	}
}

// TestTreeStationRunStackMatchesSlice drives a tree_cd fleet of run-length
// stations and plain-slice references through random per-slot feedback —
// collisions, silences and successes, which the fleet delivers per role as
// cd or sender_cd would — and requires the fleet's transmitters to be the
// references' at every slot, and no stack to outgrow the depth Fleet
// reserves.
func TestTreeStationRunStackMatchesSlice(t *testing.T) {
	src := rng.New(0x7ee5)
	for round := 0; round < 120; round++ {
		n := 1 + src.Intn(100)
		k := 1 + src.Intn(min(n, 8))
		ids := src.Sample(nil, n, k)
		ch := model.CD()
		if round%2 == 1 {
			ch = model.SenderCD()
		}
		fleet := TreeCD{}.Fleet(model.Params{N: n}, nil)
		refs := make([]*sliceTree, k)
		for i, id := range ids {
			fleet.Join(id, 0, nil)
			refs[i] = newSliceTree(n, id)
		}
		for slot := int64(0); slot < 300; slot++ {
			var want []int
			for i, id := range ids {
				if refs[i].willTransmit() {
					want = append(want, id)
				}
			}
			if got := fleet.Transmitters(slot, nil); !slices.Equal(got, want) {
				t.Fatalf("round %d (%s, n=%d) slot %d: transmitters %v, reference %v",
					round, ch.Name(), n, slot, got, want)
			}
			// Collisions dominate so the stacks grow deep.
			truth := model.Collision
			switch src.Intn(4) {
			case 0:
				truth = model.Silence
			case 1:
				truth = model.Success
			}
			winner := 0
			if truth == model.Success {
				winner = ids[src.Intn(k)]
			}
			for i, id := range ids {
				sent := refs[i].willTransmit()
				fb := ch.Deliver(truth, sent, sent && id == winner)
				successID := 0
				if fb == model.Success {
					successID = winner
				}
				refs[i].observe(fb, successID)
			}
			fleet.Observe(slot, model.Deliver(ch, truth, winner))
			for _, st := range fleet.(*treeFleet).st {
				if bound := bits.Len(uint(n)) + 2; len(st.stack) > bound {
					t.Fatalf("round %d (%s, n=%d) slot %d station %d: stack holds %d runs, past the reserved %d",
						round, ch.Name(), n, slot, st.id, len(st.stack), bound)
				}
			}
		}
	}
}

// TestTreeStationSingletonCollisionsStayLogarithmic replays the sender_cd
// pathology: a station that keeps colliding on its own singleton [x, x]
// pushes the empty [x+1, x] on every slot. After 5 000 such collisions the
// plain stack holds thousands of entries; the run-length stack must stay
// within O(log n) runs and keep transmitting exactly like the reference.
func TestTreeStationSingletonCollisionsStayLogarithmic(t *testing.T) {
	const n, id = 1 << 20, 777
	var st treeStation
	st.reset(id, n)
	ref := newSliceTree(n, id)
	singleton := 0
	for slot := int64(0); singleton < 5000; slot++ {
		tx := st.transmits()
		if tx != ref.willTransmit() {
			t.Fatalf("slot %d: transmits %v, reference %v", slot, tx, !tx)
		}
		// sender_cd with a second transmitter always present: a transmitter
		// hears the collision, a listener hears silence.
		fb := model.Silence
		if tx {
			fb = model.Collision
			if top := st.stack[len(st.stack)-1]; top.lo == id && top.hi == id {
				singleton++
			}
		}
		st.hear(fb, 0)
		ref.observe(fb, 0)
	}
	if len(ref.stack) < 5000 {
		t.Fatalf("reference stack holds %d entries; the workload no longer exercises the pathology", len(ref.stack))
	}
	// Fleet's reset reserves this bound, so a stack never grows.
	if bound := bits.Len(n) + 2; len(st.stack) > bound {
		t.Errorf("after %d singleton collisions the stack holds %d runs, want at most %d", singleton, len(st.stack), bound)
	}
}

// TestPersistentTransmitsThroughSilence checks the model.Persistent promise
// that sim.ClosedForm rests on: for every algorithm declaring it, a station
// joined alone to a fleet told silence after every slot transmits in every
// slot of the horizon, from its wake on. The fleet is reused from station to
// station, as a warm engine reuses it from trial to trial.
func TestPersistentTransmitsThroughSilence(t *testing.T) {
	algos := []model.Algorithm{
		NewRoundRobin(), NewSelectAmongFirst(), NewWaitAndGo(), NewWakeupWithS(),
		NewWakeupWithK(), NewWakeupC(), NewRPD(), NewRPDWithK(), NewLocalSSF(),
		NewBEB(), NewClockSkewed(NewTreeCD(), 3), NewTreeCD(), NewKGConflictResolution(),
	}
	silence := model.Deliver(model.None(), model.Silence, 0)
	persistent := 0
	for _, algo := range algos {
		pa, ok := algo.(model.Persistent)
		if !ok {
			continue
		}
		persistent++
		var fleet model.Fleet
		for _, n := range []int{1, 2, 7, 256, 1024} {
			p := model.Params{N: n, S: -1, Seed: 9}
			horizon := pa.(Bounded).Horizon(n, n)
			for _, id := range []int{1, (n + 1) / 2, max(1, n-1), n} {
				for _, wake := range []int64{0, 37} {
					fleet = pa.Fleet(p, fleet)
					fleet.Join(id, wake, rng.New(rng.Derive(p.Seed, uint64(id))))
					for t0 := wake; t0 < wake+horizon; t0++ {
						if tx := fleet.Transmitters(t0, nil); !slices.Equal(tx, []int{id}) {
							t.Fatalf("%s n=%d id=%d wake=%d: slot %d transmitters %v after hearing only silence",
								algo.Name(), n, id, wake, t0, tx)
						}
						fleet.Observe(t0, silence)
					}
				}
			}
		}
	}
	if persistent == 0 {
		t.Fatal("no algorithm declares model.Persistent: the check has lost its subject")
	}
}

// TestLoopingTransmitsThroughCollisions checks the model.Fleet.Looping
// promise the engine's absorbed finish rests on: a tree_cd fleet of one
// station, driven on sender_cd (Collision when it transmits, silence when it
// listens), reaches a looping state, and from there, told Collision after
// every slot, transmits and loops in every slot. A fleet that also holds a
// station that does not loop does not loop, and a retired station never
// loops.
func TestLoopingTransmitsThroughCollisions(t *testing.T) {
	src := rng.New(0x100b)
	collision := model.Deliver(model.SenderCD(), model.Collision, 0)
	var fleet model.Fleet
	for round := 0; round < 200; round++ {
		n := 2 + src.Intn(5000)
		id := 1 + src.Intn(n)
		fleet = TreeCD{}.Fleet(model.Params{N: n}, fleet)
		fleet.Join(id, 0, nil)
		slot := int64(0)
		for ; !fleet.Looping(); slot++ {
			if slot > 4*int64(bits.Len(uint(n)))+8 {
				t.Fatalf("n=%d id=%d: no looping state after %d sender_cd slots", n, id, slot)
			}
			fleet.Transmitters(slot, nil)
			fleet.Observe(slot, collision)
		}
		for end := slot + 300; slot < end; slot++ {
			if tx := fleet.Transmitters(slot, nil); len(tx) != 1 || !fleet.Looping() {
				t.Fatalf("n=%d id=%d slot %d: looping station's transmitters %v, loops %v",
					n, id, slot, tx, fleet.Looping())
			}
			fleet.Observe(slot, collision)
		}
		// A station joined now starts from [1, n], not from its singleton.
		fleet.Transmitters(slot, nil)
		if other := 1 + id%n; !fleet.JoinAt(1, other, slot, nil) || fleet.Looping() {
			t.Fatalf("n=%d id=%d: a fleet that also holds the fresh station %d loops", n, id, other)
		}
		fleet.Observe(slot, model.Deliver(model.CD(), model.Success, id))
		if fleet.Looping() {
			t.Fatalf("n=%d id=%d: a retired station loops", n, id)
		}
	}
}
