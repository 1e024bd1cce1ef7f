package core

import (
	"math/bits"
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

// TestTreeStationRunStackMatchesSlice drives run-length tree stations and
// plain-slice references through random per-slot feedback — collisions,
// silences and successes, delivered per role as cd or sender_cd would — and
// requires WillTransmit to agree at every slot.
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
		sts := make([]*treeStation, k)
		refs := make([]*sliceTree, k)
		for i, id := range ids {
			sts[i] = newTreeStation(model.Params{N: n}, id)
			refs[i] = newSliceTree(n, id)
		}
		for slot := int64(0); slot < 300; slot++ {
			for i := range sts {
				if got, want := sts[i].WillTransmit(slot), refs[i].willTransmit(); got != want {
					t.Fatalf("round %d (%s, n=%d) slot %d station %d: WillTransmit %v, reference %v",
						round, ch.Name(), n, slot, ids[i], got, want)
				}
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
				sts[i].Observe(slot, fb, successID)
				refs[i].observe(fb, successID)
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
	st := newTreeStation(model.Params{N: n}, id)
	ref := newSliceTree(n, id)
	singleton := 0
	for slot := int64(0); singleton < 5000; slot++ {
		tx := st.WillTransmit(slot)
		if tx != ref.willTransmit() {
			t.Fatalf("slot %d: WillTransmit %v, reference %v", slot, tx, !tx)
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
		st.Observe(slot, fb, 0)
		ref.observe(fb, 0)
	}
	if len(ref.stack) < 5000 {
		t.Fatalf("reference stack holds %d entries; the workload no longer exercises the pathology", len(ref.stack))
	}
	if bound := 2 * bits.Len(n); len(st.stack) > bound {
		t.Errorf("after %d singleton collisions the stack holds %d runs, want at most %d", singleton, len(st.stack), bound)
	}
}

// TestPersistentTransmitsThroughSilence checks the model.Persistent promise
// that sim.ClosedForm rests on: for every algorithm declaring it, a station
// built with BuildAdaptive and told silence after every slot transmits in
// every slot of the horizon, from its wake on.
func TestPersistentTransmitsThroughSilence(t *testing.T) {
	algos := []model.Algorithm{
		NewRoundRobin(), NewSelectAmongFirst(), NewWaitAndGo(), NewWakeupWithS(),
		NewWakeupWithK(), NewWakeupC(), NewRPD(), NewRPDWithK(), NewLocalSSF(),
		NewBEB(), NewClockSkewed(NewTreeCD(), 3), NewTreeCD(), NewKGConflictResolution(),
	}
	persistent := 0
	for _, algo := range algos {
		pa, ok := algo.(model.Persistent)
		if !ok {
			continue
		}
		persistent++
		for _, n := range []int{1, 2, 7, 256, 1024} {
			p := model.Params{N: n, S: -1, Seed: 9}
			horizon := pa.(Bounded).Horizon(n, n)
			for _, id := range []int{1, (n + 1) / 2, max(1, n-1), n} {
				for _, wake := range []int64{0, 37} {
					st := pa.BuildAdaptive(p, id, wake, rng.New(rng.Derive(p.Seed, uint64(id))))
					for t0 := wake; t0 < wake+horizon; t0++ {
						if !st.WillTransmit(t0) {
							t.Fatalf("%s n=%d id=%d wake=%d: silent at slot %d after hearing only silence",
								algo.Name(), n, id, wake, t0)
						}
						st.Observe(t0, model.Silence, 0)
					}
				}
			}
		}
	}
	if persistent == 0 {
		t.Fatal("no algorithm declares model.Persistent: the check has lost its subject")
	}
}

// TestLoopingTransmitsThroughCollisions checks the model.Looping promise the
// engine's absorbed finish rests on: a tree station driven as on sender_cd
// (Collision when it transmits, silence when it listens) reaches a looping
// state, and from there, told Collision after every slot, transmits and
// loops in every slot. A retired station never loops.
func TestLoopingTransmitsThroughCollisions(t *testing.T) {
	src := rng.New(0x100b)
	for round := 0; round < 200; round++ {
		n := 2 + src.Intn(5000)
		id := 1 + src.Intn(n)
		st := newTreeStation(model.Params{N: n}, id)
		slot := int64(0)
		for ; !st.Looping(); slot++ {
			if slot > 4*int64(bits.Len(uint(n)))+8 {
				t.Fatalf("n=%d id=%d: no looping state after %d sender_cd slots", n, id, slot)
			}
			fb := model.Silence
			if st.WillTransmit(slot) {
				fb = model.Collision
			}
			st.Observe(slot, fb, 0)
		}
		for end := slot + 300; slot < end; slot++ {
			if !st.WillTransmit(slot) || !st.Looping() {
				t.Fatalf("n=%d id=%d slot %d: looping station transmits %v, loops %v",
					n, id, slot, st.WillTransmit(slot), st.Looping())
			}
			st.Observe(slot, model.Collision, 0)
		}
		st.Observe(slot, model.Success, id)
		if st.Looping() {
			t.Fatalf("n=%d id=%d: a retired station loops", n, id)
		}
	}
}
